// Command dcatrace records, inspects and converts oracle traces — the
// content-addressed Step streams of internal/trace that dcasim -replay
// and the job.Traced runner replay instead of re-running the functional
// emulator.
//
// Subcommands:
//
//	dcatrace record -bench compress -n 1000 -o c.trace   # record 1000 instructions
//	dcatrace record -bench go -n 0 -o go.trace           # record to HALT
//	dcatrace info c.trace                                # header + digest as JSON
//	dcatrace dump -bench compress c.trace                # decoded steps as NDJSON
//	dcatrace convert -bench compress -i steps.ndjson -o c.trace
//
// record and dump accept -program file.s in place of -bench, mirroring
// dcasim. info needs no program: it prints the verified header (Decode
// checks the whole-file checksum, so a corrupted or truncated trace fails
// here, loudly). convert ingests an externally captured stream (the NDJSON
// dump format) and re-encodes it; every step must equal the one the
// program's own execution produces (trace.EncodeSteps steps an emulator
// in lockstep) and the result is validated end to end before it is
// written, so a stream the program cannot have produced is rejected at
// the door, naming the first step that differs.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/asm"
	"repro/internal/emu"
	"repro/internal/prog"
	"repro/internal/trace"
	"repro/internal/workload"
)

// recordBudget caps a -n 0 (to-HALT) recording so a divergent program
// fails instead of filling the disk.
const recordBudget = 50_000_000

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "record":
		err = cmdRecord(os.Args[2:])
	case "info":
		err = cmdInfo(os.Args[2:])
	case "dump":
		err = cmdDump(os.Args[2:])
	case "convert":
		err = cmdConvert(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dcatrace:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: dcatrace <record|info|dump|convert> [flags]

  record  -bench NAME | -program FILE, -n COUNT (0 = to HALT), [-window N] -o FILE
  info    FILE
  dump    -bench NAME | -program FILE, [-limit N] FILE
  convert -bench NAME | -program FILE, -i FILE ('-' = stdin), [-window N] -o FILE`)
	os.Exit(2)
}

// loadProgram resolves the -bench/-program pair the way dcasim does.
func loadProgram(bench, file string) (*prog.Program, error) {
	if file != "" {
		src, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		return asm.Assemble(filepath.Base(file), string(src))
	}
	return workload.Load(bench)
}

// writeTrace validates, encodes and atomically writes the trace, then
// prints its header (with digest) to stdout.
func writeTrace(tr *trace.Trace, p *prog.Program, out string) error {
	if err := tr.Validate(p); err != nil {
		return err
	}
	raw := tr.Encode()
	tmp := out + ".tmp"
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, out); err != nil {
		os.Remove(tmp)
		return err
	}
	return printMeta(tr)
}

func printMeta(tr *trace.Trace) error {
	raw, err := json.MarshalIndent(tr.Meta(), "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(raw))
	return nil
}

func cmdRecord(args []string) error {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	bench := fs.String("bench", "compress", "workload name")
	file := fs.String("program", "", "assembly file instead of a named workload")
	n := fs.Uint64("n", 0, "instructions to record (0 = to HALT)")
	window := fs.Uint64("window", 0, "window header: the committed-instruction budget the recording is for (0 = -n)")
	out := fs.String("o", "", "output file (required)")
	fs.Parse(args)
	if *out == "" {
		return fmt.Errorf("record: -o is required")
	}
	p, err := loadProgram(*bench, *file)
	if err != nil {
		return err
	}
	rec := trace.NewRecorder(p)
	budget := *n
	if budget == 0 {
		budget = recordBudget
	}
	if err := rec.Extend(budget); err != nil {
		return fmt.Errorf("recording %s: %w", p.Name, err)
	}
	if *n == 0 && !rec.Halted() {
		return fmt.Errorf("recording %s: no HALT within %d instructions", p.Name, recordBudget)
	}
	w := *window
	if w == 0 {
		w = *n
	}
	return writeTrace(rec.Finalize(w), p, *out)
}

func cmdInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("info: exactly one trace file expected")
	}
	raw, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	tr, err := trace.Decode(raw)
	if err != nil {
		return err
	}
	return printMeta(tr)
}

func cmdDump(args []string) error {
	fs := flag.NewFlagSet("dump", flag.ExitOnError)
	bench := fs.String("bench", "compress", "workload name")
	file := fs.String("program", "", "assembly file instead of a named workload")
	limit := fs.Uint64("limit", 0, "print at most this many steps (0 = all)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("dump: exactly one trace file expected")
	}
	p, err := loadProgram(*bench, *file)
	if err != nil {
		return err
	}
	raw, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	tr, err := trace.Decode(raw)
	if err != nil {
		return err
	}
	steps, err := tr.DecodeSteps(p)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	enc := json.NewEncoder(w)
	for i := range steps {
		if *limit > 0 && uint64(i) >= *limit {
			break
		}
		if err := enc.Encode(&steps[i]); err != nil {
			return err
		}
	}
	return nil
}

func cmdConvert(args []string) error {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	bench := fs.String("bench", "compress", "workload name")
	file := fs.String("program", "", "assembly file instead of a named workload")
	in := fs.String("i", "-", "NDJSON step stream to ingest ('-' = stdin; the dump format)")
	window := fs.Uint64("window", 0, "window header for the converted trace")
	out := fs.String("o", "", "output file (required)")
	fs.Parse(args)
	if *out == "" {
		return fmt.Errorf("convert: -o is required")
	}
	p, err := loadProgram(*bench, *file)
	if err != nil {
		return err
	}
	r := os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	var steps []emu.Step
	dec := json.NewDecoder(bufio.NewReader(r))
	for dec.More() {
		var st emu.Step
		if err := dec.Decode(&st); err != nil {
			return fmt.Errorf("convert: step %d: %w", len(steps), err)
		}
		steps = append(steps, st)
	}
	tr, err := trace.EncodeSteps(p, *window, steps)
	if err != nil {
		return fmt.Errorf("convert: %w", err)
	}
	return writeTrace(tr, p, *out)
}
