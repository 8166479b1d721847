package autotune

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/tracegen"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/expand.golden")

// ciGrammar is the grammar of ci.sh's pruning-soundness stage.
func ciGrammar() Grammar {
	return Grammar{
		Organizations: []string{"vr", "rr", "vr-wt", "rlt"},
		L1Sizes:       []uint64{1024, 4096, 8192},
		L1Assocs:      []int{1},
		L2Sizes:       []uint64{65536, 131072},
		BlockRatios:   []int{2},
		VictimEntries: []int{0, 4},
		RLTEntries:    []int{0, 16},
	}
}

// writeCandidates prints one line per candidate: label, the machine as
// %+v, and the SRAM cost.
func writeCandidates(w io.Writer, cands []Candidate) {
	for _, c := range cands {
		fmt.Fprintf(w, "%s\t%+v\t%d\n", c.Label, c.Config, c.Bits)
	}
}

// TestExpandGolden pins what grammar expansion produces, byte for byte:
// labels name the candidates in every autotune report, and the machines
// behind them decide every measurement. It covers the zero grammar, ci.sh's
// grammar in full and the 1728-candidate paper grammar as a digest (too
// large to keep line by line). The file predates the move of defaults and
// legality into system.Spec; regenerate it (-update) only for a change that
// means to alter expansion.
func TestExpandGolden(t *testing.T) {
	pops := tracegen.PopsLike()
	var got bytes.Buffer
	for _, g := range []struct {
		name string
		g    Grammar
	}{{"zero grammar", Grammar{}}, {"ci.sh grammar", ciGrammar()}} {
		cands, err := g.g.Expand(pops.CPUs, pops.PageSize)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		fmt.Fprintf(&got, "== %s: %d candidates\n", g.name, len(cands))
		writeCandidates(&got, cands)
	}
	cands, err := PaperGrammar().Expand(4, 4096)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	writeCandidates(h, cands)
	fmt.Fprintf(&got, "== paper grammar: %d candidates, sha256 %x\n", len(cands), h.Sum(nil))

	path := filepath.Join("testdata", "expand.golden")
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
		t.Errorf("expansion differs from %s: first difference %s", path, firstDiff(want, got.Bytes()))
	}
}

// firstDiff describes the first line where got departs from want.
func firstDiff(want, got []byte) string {
	wl, gl := bytes.Split(want, []byte("\n")), bytes.Split(got, []byte("\n"))
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g []byte
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if !bytes.Equal(w, g) {
			return fmt.Sprintf("at line %d:\nwant %s\ngot  %s", i+1, w, g)
		}
	}
	return "none"
}
