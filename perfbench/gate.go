package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sort"
	"sync"
)

// recordedJSON holds the digests of every output the default seed
// produces: experiment text, machine reports and job reports.
//
//go:embed recorded.json
var recordedJSON []byte

// gate is the correctness check every operation of a run passes through.
// An operation fails when it returns an error, when its output's digest
// differs from the recorded one, or when the same key produced another
// digest earlier in the run. A failed operation is counted, never skipped.
type gate struct {
	mu        sync.Mutex
	recorded  map[string]string
	recording bool              // collect digests instead of comparing them
	collected map[string]string // what this run produced, by key
	attempted int
	failed    int
	problems  []string
}

func newGate(recording bool) (*gate, error) {
	g := &gate{recording: recording, collected: map[string]string{}}
	if err := json.Unmarshal(recordedJSON, &g.recorded); err != nil {
		return nil, fmt.Errorf("recorded digests: %w", err)
	}
	return g, nil
}

func digest(out []byte) string {
	sum := sha256.Sum256(out)
	return hex.EncodeToString(sum[:])
}

// check counts one operation with output out. When recorded is set the
// digest must equal the one recorded for key.
func (g *gate) check(key string, out []byte, err error, recorded bool) string {
	d := digest(out)
	g.mu.Lock()
	defer g.mu.Unlock()
	g.attempted++
	switch prev, seen := g.collected[key]; {
	case err != nil:
		g.failLocked("%s: %v", key, err)
	case seen && prev != d:
		g.failLocked("%s: digest %.12s differs from %.12s earlier in the run", key, d, prev)
	case recorded && !g.recording && g.recorded[key] == "":
		g.failLocked("%s: no recorded digest", key)
	case recorded && !g.recording && g.recorded[key] != d:
		g.failLocked("%s: digest %.12s, recorded %.12s", key, d, g.recorded[key])
	}
	if _, seen := g.collected[key]; !seen && err == nil {
		g.collected[key] = d
	}
	return d
}

// fail counts one failed operation that produced no output to digest.
func (g *gate) fail(format string, args ...any) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.attempted++
	g.failLocked(format, args...)
}

// expectEqual counts one operation that passes when two outputs are equal.
func (g *gate) expectEqual(what string, got, want []byte) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.attempted++
	if !bytes.Equal(got, want) {
		g.failLocked("%s: %.12s differs from %.12s", what, digest(got), digest(want))
	}
}

func (g *gate) failLocked(format string, args ...any) {
	g.failed++
	if len(g.problems) < 20 {
		g.problems = append(g.problems, fmt.Sprintf(format, args...))
	}
}

func (g *gate) counts() (attempted, failed int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.attempted, g.failed
}

// digestLines lists the run's digests by key, for comparing a parent and
// a change on a seed whose digests are not recorded.
func (g *gate) digestLines() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	keys := make([]string, 0, len(g.collected))
	for k := range g.collected {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	lines := make([]string, len(keys))
	for i, k := range keys {
		lines[i] = fmt.Sprintf("digest %s %s", k, g.collected[k])
	}
	return lines
}

// writeRecorded merges this run's digests into the set recorded at path
// (the source of recorded.json) and writes it back.
func (g *gate) writeRecorded(path string) error {
	merged := map[string]string{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &merged); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	g.mu.Lock()
	for k, v := range g.collected {
		merged[k] = v
	}
	g.mu.Unlock()
	data, err := json.MarshalIndent(merged, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
