package benchmark

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// Report is what `wbbench -o` writes: every workload's result, with each
// metric's median, quartiles and sample count.
type Report struct {
	Schema  string    `json:"schema"`
	Seed    int64     `json:"seed"`
	Seconds float64   `json:"seconds"`
	CPUs    int       `json:"cpus"`
	Traced  bool      `json:"traced"`
	Results []*Result `json:"results"`
}

// ReportSchema names the report format.
const ReportSchema = "wbbench/v1"

// ReadReport loads a report written by `wbbench -o`.
func ReadReport(path string) (*Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != ReportSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, ReportSchema)
	}
	return &r, nil
}

// Bound is one end-to-end metric's entry in BENCHMARK.json.
type Bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// Spec is the part of BENCHMARK.json that compare reads.
type Spec struct {
	EndToEnd []Bound `json:"end_to_end"`
}

// ReadSpec loads BENCHMARK.json.
func ReadSpec(path string) (*Spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// Row compares one (workload, metric) pair, or one workload's failure
// share when Metric is "fail_share".
type Row struct {
	Workload, Metric string
	A, B             float64 // medians (fail_share: failed over attempted)
	Delta            float64 // (B-A)/A
	Bound            float64
	Spread           float64 // the wider side's quartile spread, as a share of its median
	Verdict          string  // ok, better, unresolved, REGRESSION
}

// Regressed reports whether the row fails the comparison.
func (r Row) Regressed() bool { return r.Verdict == "REGRESSION" }

// side collects one metric's per-run medians, or the single run's
// summary when a side has one run.
type side struct {
	medians []float64
	single  Summary
}

func (s side) value() (median, spread float64) {
	if len(s.medians) == 1 {
		return s.single.Median, s.single.Spread()
	}
	sum := Summarize(s.medians)
	return sum.Median, sum.Spread()
}

// Compare matches the end-to-end metrics of runs a (the parent) and b
// (the change) workload by workload. A side with several reports counts
// each report as one run: its value is the median of the runs' medians
// and its spread their quartile spread; with a single report, the spread
// is that run's own quartile spread. A pair whose spread exceeds its
// bound is unresolved; a resolved pair that worsens by more than its
// bound is a regression, as is any rise in a workload's failure share.
func Compare(spec *Spec, a, b []*Report) []Row {
	collect := func(reports []*Report) (map[[2]string]*side, map[string][2]int) {
		vals := map[[2]string]*side{}
		fails := map[string][2]int{}
		for _, rep := range reports {
			for _, res := range rep.Results {
				f := fails[res.Workload]
				fails[res.Workload] = [2]int{f[0] + res.Failed, f[1] + res.Attempted}
				for name, m := range res.Metrics {
					k := [2]string{res.Workload, name}
					if vals[k] == nil {
						vals[k] = &side{}
					}
					vals[k].medians = append(vals[k].medians, m.Median)
					vals[k].single = m.Summary
				}
			}
		}
		return vals, fails
	}
	va, fa := collect(a)
	vb, fb := collect(b)

	var workloads []string
	for w := range fa {
		if _, ok := fb[w]; ok {
			workloads = append(workloads, w)
		}
	}
	sort.Strings(workloads)

	var rows []Row
	for _, w := range workloads {
		for _, bound := range spec.EndToEnd {
			sa, sb := va[[2]string{w, bound.Name}], vb[[2]string{w, bound.Name}]
			if sa == nil || sb == nil {
				continue
			}
			ma, spa := sa.value()
			mb, spb := sb.value()
			row := Row{Workload: w, Metric: bound.Name, A: ma, B: mb, Bound: bound.Bound, Spread: math.Max(spa, spb)}
			if ma != 0 {
				row.Delta = (mb - ma) / ma
			}
			worse := row.Delta
			if bound.Better == "higher" {
				worse = -worse
			}
			switch {
			case row.Spread > bound.Bound:
				row.Verdict = "unresolved"
			case worse > bound.Bound:
				row.Verdict = "REGRESSION"
			case worse < -bound.Bound:
				row.Verdict = "better"
			default:
				row.Verdict = "ok"
			}
			rows = append(rows, row)
		}
		share := func(f [2]int) float64 { return float64(f[0]) / float64(max(f[1], 1)) }
		row := Row{Workload: w, Metric: "fail_share", A: share(fa[w]), B: share(fb[w]), Verdict: "ok"}
		if row.B > row.A {
			row.Verdict = "REGRESSION"
		}
		rows = append(rows, row)
	}
	return rows
}

// PrintRows writes the comparison as an aligned table.
func PrintRows(w io.Writer, rows []Row) {
	fmt.Fprintf(w, "%-12s %-12s %14s %14s %8s %7s %7s  %s\n", "workload", "metric", "A median", "B median", "delta", "bound", "spread", "verdict")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %-12s %14.4f %14.4f %+7.1f%% %6.1f%% %6.1f%%  %s\n",
			r.Workload, r.Metric, r.A, r.B, 100*r.Delta, 100*r.Bound, 100*r.Spread, r.Verdict)
	}
}
