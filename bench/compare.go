package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func loadDocument(path string) (*document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d document
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(d.Runs) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return &d, nil
}

// verdict judges one end-to-end metric: regressed when the new median
// is worse than the old by more than the bound; unresolved when the
// run-to-run spread of either side exceeds the bound, unless every new
// run reads better than every old one.
func verdict(def metricDef, old, cur []float64) (ratio float64, v string) {
	base, now := median(old), median(cur)
	if base == 0 {
		return 0, "unresolved"
	}
	ratio = now / base
	worse := ratio - 1
	if def.better == "higher" {
		worse = 1 - ratio
	}
	if max(spread(old), spread(cur)) > def.bound {
		so, sc := sorted(old), sorted(cur)
		allBetter := sc[len(sc)-1] < so[0]
		if def.better == "higher" {
			allBetter = sc[0] > so[len(so)-1]
		}
		if !allBetter {
			return ratio, "unresolved"
		}
		return ratio, "ok"
	}
	if worse > def.bound {
		return ratio, "regressed"
	}
	return ratio, "ok"
}

// sameCounts reports whether an exact-count metric read one and the
// same value on every run of both documents.
func sameCounts(old, cur []float64) bool {
	for _, v := range append(append([]float64(nil), old...), cur...) {
		if v != old[0] {
			return false
		}
	}
	return true
}

// compareFiles prints one row per (workload, end-to-end metric) and
// one per exact count that differs, and reports whether anything
// regressed or a count changed.
func compareFiles(oldPath, newPath string, out io.Writer) (bad bool, err error) {
	old, err := loadDocument(oldPath)
	if err != nil {
		return false, err
	}
	cur, err := loadDocument(newPath)
	if err != nil {
		return false, err
	}
	if old.Seed != cur.Seed || old.Seconds != cur.Seconds || old.Smoke != cur.Smoke {
		fmt.Fprintf(out, "warning: settings differ (seed %d/%d, seconds %g/%g, smoke %v/%v)\n",
			old.Seed, cur.Seed, old.Seconds, cur.Seconds, old.Smoke, cur.Smoke)
	}
	fmt.Fprintf(out, "%-13s %-22s %12s %12s %7s %6s  %s\n", "workload", "metric", "base", "new", "ratio", "bound", "verdict")
	for _, w := range workloads {
		for _, def := range endToEnd {
			o, c := old.samples(w.name, def.name), cur.samples(w.name, def.name)
			if len(o) == 0 || len(c) == 0 {
				continue
			}
			ratio, v := verdict(def, o, c)
			bad = bad || v == "regressed"
			fmt.Fprintf(out, "%-13s %-22s %12.4f %12.4f %7.3f %6.2f  %s (spread %.1f%% / %.1f%%, n=%d/%d)\n",
				w.name, def.name, median(o), median(c), ratio, def.bound, v, 100*spread(o), 100*spread(c), len(o), len(c))
		}
		for _, def := range perLayer {
			o, c := old.samples(w.name, def.name), cur.samples(w.name, def.name)
			if !def.exact || len(o) == 0 || len(c) == 0 || sameCounts(o, c) {
				continue
			}
			bad = true
			fmt.Fprintf(out, "%-13s %-22s %12.4f %12.4f %7s %6s  count changed\n",
				w.name, def.name, median(o), median(c), "", "exact")
		}
	}
	return bad, nil
}
