package jobs

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzJobConfigDecode feeds arbitrary bytes to the job-submission decoder —
// the exact bytes an HTTP client can put on the wire. The decoder must
// never panic, must return the structured *Error on rejection, and any
// document it accepts must satisfy three properties:
//
//  1. Validate holds on the decoded struct (DecodeConfig really validated).
//  2. Canonical re-encodes to a document DecodeConfig accepts again, and
//     the second decode canonicalizes identically (a fixed point — the
//     manager persists Canonical bytes and must be able to recover them).
//  3. The workload and machine list build without panicking: acceptance
//     means the job is actually runnable, within the service bounds.
func FuzzJobConfigDecode(f *testing.F) {
	for _, seed := range []string{
		// The documents the README and e2e suite submit.
		`{"kind":"run","preset":"pops"}`,
		`{"kind":"run","preset":"pops","scale":0.05,"timed":true,"params":{"tm":30}}`,
		`{"kind":"run","preset":"abaqus","deadline":"90s","machine":{"org":"rr","l1Size":32768,"l1Assoc":2,"split":true}}`,
		`{"kind":"sweep","preset":"thor","machines":[{"org":"vr"},{"org":"rr","l2Size":524288},{"label":"wt","org":"vr-wt"}]}`,
		`{"kind":"autotune","preset":"pops","scale":0.02,"autotune":{"exhaustive":true,"grammar":{"organizations":["vr","rr"]}}}`,
		`{"kind":"autotune","preset":"pops","autotune":{"probeRefs":20000,"shards":2,"margin":0.5}}`,
		// Synonym-strategy fields: the rlt organization, victim caches, and
		// the grammar axes for both.
		`{"kind":"run","preset":"pops","machine":{"org":"rlt","rltEntries":16,"victim":4}}`,
		`{"kind":"sweep","preset":"abaqus","machines":[{"org":"vr","victim":8},{"org":"rlt"},{"org":"rrnoincl","victim":4}]}`,
		`{"kind":"autotune","preset":"pops","autotune":{"grammar":{"organizations":["vr","rlt"],"victimEntries":[0,4],"rltEntries":[0,16]}}}`,
		// Structurally valid, semantically wrong: exercise every validator arm.
		`{"kind":"run","preset":"pops","machine":{"org":"vr","rltEntries":16}}`,
		`{"kind":"run","preset":"pops","machine":{"org":"rlt","rltEntries":12}}`,
		`{"kind":"run","preset":"pops","machine":{"victim":-1}}`,
		`{"kind":"walk","preset":"pops"}`,
		`{"kind":"run","preset":"pops","scale":-3}`,
		`{"kind":"run","preset":"pops","machine":{"l1Size":12345}}`,
		`{"kind":"run","preset":"pops","machine":{"l1Block":16,"l2Block":8}}`,
		`{"kind":"sweep","preset":"pops"}`,
		`{"kind":"autotune","preset":"pops","timed":true}`,
		`{"kind":"run","preset":"pops","deadline":"-1s"}`,
		`{"kind":"run","preset":"pops","params":{"t1":9}}`,
		// Malformed bytes.
		``,
		`{`,
		`[]`,
		`{"kind":"run","preset":"pops"}{"kind":"run"}`,
		`{"kind":"run","preset":"pops","bogus":true}`,
		"\x00\x01\x02",
	} {
		f.Add([]byte(seed))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := DecodeConfig(data)
		if err != nil {
			var je *Error
			if !asJobsError(err, &je) {
				t.Fatalf("rejection is not a *jobs.Error: %T %v", err, err)
			}
			if je.Msg == "" {
				t.Fatal("rejection with an empty message")
			}
			return
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("accepted config fails Validate: %v", err)
		}

		canon := cfg.Canonical()
		again, err := DecodeConfig(canon)
		if err != nil {
			t.Fatalf("canonical form rejected: %v\ncanonical: %s", err, canon)
		}
		if !bytes.Equal(canon, again.Canonical()) {
			t.Fatalf("canonicalization is not a fixed point:\nfirst:  %s\nsecond: %s", canon, again.Canonical())
		}

		// Accepted means runnable: the workload resolves and, for run and
		// sweep jobs, every machine builds a legal system.Config.
		wl := cfg.workload()
		if wl.TotalRefs <= 0 || float64(wl.TotalRefs) > maxRefs {
			t.Fatalf("accepted workload has %d refs", wl.TotalRefs)
		}
		if cfg.Kind == KindRun || cfg.Kind == KindSweep {
			ms, err := cfg.machines(wl)
			if err != nil {
				t.Fatalf("accepted config builds no machines: %v", err)
			}
			if len(ms) == 0 || len(ms) > maxSweepConfigs {
				t.Fatalf("accepted config built %d machines", len(ms))
			}
		}
		_ = cfg.cycleParams()
	})
}

// asJobsError unwraps to *Error without importing errors (keeps the fuzz
// target dependency-light; identical semantics for this one type).
func asJobsError(err error, target **Error) bool {
	je, ok := err.(*Error)
	if ok {
		*target = je
	}
	return ok
}

// TestDecodeConfigCanonicalStable pins the canonical form of a fully
// populated document, so accidental field renames show up as a diff here
// rather than as silently orphaned persisted specs.
func TestDecodeConfigCanonicalStable(t *testing.T) {
	in := `{
		"kind": "sweep", "preset": "thor", "scale": 0.25, "deadline": "5m",
		"timed": true, "params": {"t1": 1, "t2": 4, "tm": 30, "contention": false},
		"machines": [
			{"label": "a", "org": "vr", "l1Size": 16384, "l1Assoc": 1, "l1Block": 16,
			 "split": true, "l2Size": 262144, "l2Assoc": 2, "l2Block": 32,
			 "tlbEntries": 64, "tlbAssoc": 2, "writeBufDepth": 4, "policy": "fifo"}
		]}`
	cfg, err := DecodeConfig([]byte(in))
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(cfg.Canonical(), &doc); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"kind", "preset", "scale", "deadline", "timed", "params", "machines"} {
		if _, ok := doc[key]; !ok {
			t.Errorf("canonical form lost %q", key)
		}
	}
}

// TestMachineTokenErrors pins the field and text of the organization and
// policy rejections byte for byte: clients match on them, and the token
// tables behind them are shared with the command line and the autotuner.
func TestMachineTokenErrors(t *testing.T) {
	cases := []struct{ config, want string }{
		{`{"kind":"run","preset":"pops","machine":{"org":"psycho"}}`,
			`machine.org: unknown organization "psycho" (vr, rr, rrnoincl, rlt, vr-wt, rr-wt)`},
		{`{"kind":"run","preset":"pops","machine":{"org":"VR"}}`,
			`machine.org: unknown organization "VR" (vr, rr, rrnoincl, rlt, vr-wt, rr-wt)`},
		{`{"kind":"run","preset":"pops","machine":{"policy":"clock"}}`,
			`machine.policy: unknown policy "clock" (lru, fifo, random)`},
		{`{"kind":"sweep","preset":"pops","machines":[{},{"org":"noincl"}]}`,
			`machines[1].org: unknown organization "noincl" (vr, rr, rrnoincl, rlt, vr-wt, rr-wt)`},
	}
	for _, tc := range cases {
		_, err := DecodeConfig([]byte(tc.config))
		if err == nil || err.Error() != tc.want {
			t.Errorf("DecodeConfig(%s) = %v, want %s", tc.config, err, tc.want)
		}
	}
}
