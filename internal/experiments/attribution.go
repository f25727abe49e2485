package experiments

import (
	"fmt"
	"strings"
)

// FormatAttribution renders the grid's stall breakdowns as text, one
// table per attributed cell, BaseScheme first and the remaining schemes
// sorted. Cells without a report (grid run without Opts.Attrib, or served
// from a cache) are skipped; the empty string means nothing was
// attributed.
func (r *Result) FormatAttribution() string {
	if r.attrib == nil {
		return ""
	}
	var sb strings.Builder
	for _, j := range r.reportJobs() {
		rep := r.attrib.Report(j.Key())
		if rep == nil {
			continue
		}
		fmt.Fprintf(&sb, "%s/%s — where %d measured cycles went:\n%s\n",
			j.Scheme, j.Benchmark, rep.TotalCycles, rep.Table())
	}
	return sb.String()
}
