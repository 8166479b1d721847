// Command tracegen emits synthetic multiprocessor traces in the binary or
// text trace format.
//
// Usage:
//
//	tracegen -preset pops -o pops.trc            # binary format
//	tracegen -preset abaqus -scale 0.1 -format text -o -   # text to stdout
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/trace"
	"repro/internal/tracegen"
)

func main() {
	preset := flag.String("preset", "pops", "workload preset: pops, thor or abaqus")
	scale := flag.Float64("scale", 1.0, "trace length scale factor")
	format := flag.String("format", "binary", "output format: binary, gzip or text")
	out := flag.String("o", "-", "output file ('-' = stdout)")
	seed := flag.Int64("seed", 0, "override the preset's seed (0 = keep)")
	flag.Parse()

	if err := run(*preset, *scale, *format, *out, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

func run(preset string, scale float64, format, out string, seed int64) error {
	cfg, err := tracegen.PresetByName(preset)
	if err != nil {
		return err
	}
	cfg = cfg.Scaled(scale)
	if seed != 0 {
		cfg.Seed = seed
	}
	gen, err := tracegen.New(cfg)
	if err != nil {
		return err
	}

	var w io.Writer = os.Stdout
	if out != "-" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}

	var write func(trace.Ref) error
	var flush func() error
	switch format {
	case "binary":
		bw := trace.NewBinaryWriter(w)
		write, flush = bw.Write, bw.Flush
	case "gzip":
		gw := trace.NewGzipWriter(w)
		write, flush = gw.Write, gw.Close
	case "text":
		tw := trace.NewTextWriter(w)
		write, flush = tw.Write, tw.Flush
	default:
		return fmt.Errorf("unknown format %q", format)
	}

	for {
		ref, err := gen.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if err := write(ref); err != nil {
			return err
		}
	}
	if err := flush(); err != nil {
		return err
	}
	c := gen.Characteristics()
	fmt.Fprintf(os.Stderr, "tracegen: %s: %d refs (%d instr, %d read, %d write), %d context switches\n",
		cfg.Name, c.TotalRefs, c.Instrs, c.Reads, c.Writes, c.CtxSwitches)
	return nil
}
