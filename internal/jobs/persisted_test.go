package jobs

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/persisted.golden")

// TestPersistedForms pins the bytes a daemon persists per job: the
// canonical config (the manager's job file and fingerprint) and, per
// machine, the label its report carries and the checkpoint signature a
// resumed job must reproduce. A daemon upgraded mid-job resumes its
// checkpoints only if these stay byte-identical. The documents are ci.sh's
// sweep smoke, a default run, and a timed sweep that sets every machine
// and timing field. The file predates the move of machine defaults and
// legality into system.Spec; regenerate it (-update) only for a change that
// means to orphan persisted jobs.
func TestPersistedForms(t *testing.T) {
	docs := []struct{ name, doc string }{
		{"ci.sh sweep", `{"kind": "sweep", "preset": "pops", "scale": 0.02, "machines": [
			{"label": "vr-16K/256K", "org": "vr", "l1Size": 16384, "l2Size": 262144},
			{"label": "rr-16K/256K", "org": "rr", "l1Size": 16384, "l2Size": 262144},
			{"label": "vr-64K/1M", "org": "vr", "l1Size": 65536, "l2Size": 1048576}]}`},
		{"default run", `{"kind":"run","preset":"pops"}`},
		{"timed sweep, every field", `{"kind": "sweep", "preset": "thor", "scale": 0.25, "deadline": "5m",
			"timed": true, "params": {"t1": 2, "tm": 30, "tlbPenalty": 8, "ctxCost": 5,
				"busMemOcc": 12, "busCtrlOcc": 2, "contention": false},
			"machines": [
			{"org": "vr", "l1Size": 16384, "l1Assoc": 1, "l1Block": 16, "split": true,
			 "l2Size": 262144, "l2Assoc": 2, "l2Block": 32, "tlbEntries": 64, "tlbAssoc": 2,
			 "writeBufDepth": 4, "policy": "fifo"},
			{"org": "rlt", "l1Size": 8192, "l1Block": 32, "l2Size": 524288, "l2Block": 128,
			 "tlbEntries": 128, "tlbAssoc": 4, "policy": "random", "victim": 4, "rltEntries": 64},
			{"org": "rr-wt", "l1Assoc": 2, "l2Assoc": 4},
			{"label": "plain", "org": "rrnoincl"}]}`},
	}
	var got bytes.Buffer
	for _, d := range docs {
		cfg, err := DecodeConfig([]byte(d.doc))
		if err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		fmt.Fprintf(&got, "== %s\ncanonical: %s\n", d.name, cfg.Canonical())
		wl := cfg.workload()
		cfgs, labels, err := cfg.machines(wl)
		if err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		for i, mc := range cfgs {
			fmt.Fprintf(&got, "label[%d]: %s\nsignature[%d]: %s\n",
				i, labels[i], i, signature(wl, mc, i, cfg.Timed, cfg.cycleParams()))
		}
	}

	path := filepath.Join("testdata", "persisted.golden")
	if *updateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("persisted forms differ from %s:\ngot:\n%s", path, got.Bytes())
	}
}
