// Command dcaprofile characterizes workloads: dynamic instruction mix,
// branch behaviour, working set, dependence distances and slice coverage —
// the numbers that justify each SpecInt95 analog's fidelity claim.
//
// Usage:
//
//	dcaprofile                    # side-by-side table of all workloads
//	dcaprofile -bench compress    # full report for one workload
//	dcaprofile -program prog.s    # profile an assembly file
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/asm"
	"repro/internal/profile"
	"repro/internal/workload"
)

func main() {
	var (
		bench  = flag.String("bench", "", "workload to profile in detail")
		file   = flag.String("program", "", "assembly file to profile")
		window = flag.Uint64("window", 200_000, "dynamic instruction window")
	)
	flag.Parse()

	switch {
	case *file != "":
		p, err := asm.AssembleFile(*file)
		if err != nil {
			fatal(err)
		}
		rep, err := profile.Profile(p, *window)
		if err != nil {
			fatal(err)
		}
		fmt.Print(rep)
	case *bench != "":
		p, err := workload.Load(*bench)
		if err != nil {
			fatal(err)
		}
		rep, err := profile.Profile(p, *window)
		if err != nil {
			fatal(err)
		}
		fmt.Print(rep)
	default:
		var reports []*profile.Report
		for _, name := range workload.Names() {
			p, err := workload.Load(name)
			if err != nil {
				fatal(err)
			}
			rep, err := profile.Profile(p, *window)
			if err != nil {
				fatal(err)
			}
			reports = append(reports, rep)
		}
		fmt.Print(profile.Compare(reports))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dcaprofile:", err)
	os.Exit(1)
}
