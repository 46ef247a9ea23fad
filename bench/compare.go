package main

import (
	"fmt"
	"io"
	"math"
)

// compareFiles applies the end-to-end bounds to every (metric, workload)
// row of two result files and prints one verdict per row:
//
//	worse       the change's value is beyond the bound on the bad side
//	better      it is beyond the bound on the good side
//	same        it is within the bound
//	unresolved  the parent's own samples spread too widely for the row to
//	            tell: (Q3−Q1)/median of its n samples, over √n because
//	            the row compares medians of n, exceeds the bound
//
// fail_frac has no relative bound: any failure in the change is worse.
// It reports whether no row was worse.
func compareFiles(w io.Writer, parentPath, changePath string) (bool, error) {
	var parent, change resultFile
	if err := readJSON(parentPath, &parent); err != nil {
		return false, err
	}
	if err := readJSON(changePath, &change); err != nil {
		return false, err
	}
	if parent.SchemaVersion != schemaVersion || change.SchemaVersion != schemaVersion {
		return false, fmt.Errorf("schema_version %d and %d, this build reads %d",
			parent.SchemaVersion, change.SchemaVersion, schemaVersion)
	}
	ok := true
	fmt.Fprintf(w, "%-11s %-16s %14s %14s %8s %6s  %s\n", "workload", "metric", "parent", "change", "delta", "bound", "verdict")
	for _, wl := range workloads {
		p, c := parent.Workloads[wl.Name], change.Workloads[wl.Name]
		if p == nil || c == nil || p.EndToEnd == nil || c.EndToEnd == nil {
			return false, fmt.Errorf("workload %s is missing from a result file", wl.Name)
		}
		for _, d := range endToEnd {
			pv, cv := p.EndToEnd.Metrics[d.Name].Value, c.EndToEnd.Metrics[d.Name].Value
			v := verdict(d, pv, cv, p.EndToEnd.Timings[d.Name])
			if v == "worse" {
				ok = false
			}
			fmt.Fprintf(w, "%-11s %-16s %14.6g %14.6g %+7.1f%% %5.0f%%  %s\n",
				wl.Name, d.Name, pv, cv, 100*(cv-pv)/pv, 100*d.Bound, v)
		}
		v := "same"
		if c.EndToEnd.FailFrac > 0 {
			v, ok = "worse", false
		}
		fmt.Fprintf(w, "%-11s %-16s %14.6g %14.6g %8s %6s  %s\n",
			wl.Name, "fail_frac", p.EndToEnd.FailFrac, c.EndToEnd.FailFrac, "", "0", v)
	}
	return ok, nil
}

func verdict(d metricDef, parent, change float64, parentSamples summary) string {
	// Positive when the change is on the bad side of the parent.
	worse := (change - parent) / parent
	if d.Better == "higher" {
		worse = -worse
	}
	switch {
	case parentSamples.spread()/math.Sqrt(float64(max(parentSamples.N, 1))) > d.Bound:
		return "unresolved"
	case worse > d.Bound:
		return "worse"
	case worse < -d.Bound:
		return "better"
	}
	return "same"
}
