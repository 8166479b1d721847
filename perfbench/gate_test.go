package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"testing"

	"repro/internal/experiments"
)

// TestFlippedByteFails runs a real experiment, passes its output through
// the gate against the recorded digest, then flips one byte of it and
// requires the gate to count that operation as failed.
func TestFlippedByteFails(t *testing.T) {
	g, err := newGate(false)
	if err != nil {
		t.Fatal(err)
	}
	e, err := experiments.ByID("table1")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := e.Run(&out, paperScale); err != nil {
		t.Fatal(err)
	}
	g.check("paper-tables/table1", out.Bytes(), nil, true)
	if a, f := g.counts(); a != 1 || f != 0 {
		t.Fatalf("recorded output: attempted %d failed %d, want 1 and 0 (%v)", a, f, g.problems)
	}

	flipped := append([]byte(nil), out.Bytes()...)
	flipped[len(flipped)/2] ^= 0x01
	fresh, err := newGate(false)
	if err != nil {
		t.Fatal(err)
	}
	fresh.check("paper-tables/table1", flipped, nil, true)
	if a, f := fresh.counts(); a != 1 || f != 1 {
		t.Fatalf("flipped output: attempted %d failed %d, want 1 and 1", a, f)
	}

	// Within a run, a key whose digest changes between passes fails too.
	g.check("paper-tables/table1", flipped, nil, false)
	if _, f := g.counts(); f != 1 {
		t.Fatalf("digest change within a run: failed %d, want 1", f)
	}
}

// TestQuartilesMatchPython compares with statistics.quantiles(d, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		d      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 3, 5, 9}, 1.5, 8},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
	}
	for _, c := range cases {
		s := summarize(c.d)
		if s.Q1 != c.q1 || s.Q3 != c.q3 {
			t.Errorf("%v: quartiles %g %g, want %g %g", c.d, s.Q1, s.Q3, c.q1, c.q3)
		}
	}
}

// TestBenchmarkJSONNames requires BENCHMARK.json to list exactly the
// metrics the benchmark emits, with the same units.
func TestBenchmarkJSONNames(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	b := &bench{}
	e2e, _ := b.endToEnd()
	var want, got []string
	for name, m := range e2e {
		want = append(want, name+" "+m.Unit)
	}
	for _, m := range spec.EndToEnd {
		got = append(got, m.Name+" "+m.Unit)
	}
	for _, nu := range perLayerUnits() {
		want = append(want, nu[0]+" "+nu[1])
	}
	for _, m := range spec.PerLayer {
		got = append(got, m.Name+" "+m.Unit)
	}
	sort.Strings(want)
	sort.Strings(got)
	if len(want) != len(got) {
		t.Fatalf("BENCHMARK.json lists %d metrics, the benchmark emits %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Errorf("BENCHMARK.json has %q where the benchmark emits %q", got[i], want[i])
		}
	}
}
