package benchmark

import (
	"math"
	"testing"
)

var testSpec = &Spec{EndToEnd: []Bound{
	{Name: "latency_ms", Unit: "ms", Better: "lower", Bound: 0.1},
	{Name: "rate", Unit: "1/s", Better: "higher", Bound: 0.1},
}}

func report(workload string, failed int, metrics map[string]Summary) *Report {
	res := &Result{Workload: workload, Attempted: 100, Failed: failed, Metrics: map[string]Metric{}}
	for name, s := range metrics {
		res.Metrics[name] = Metric{Unit: "x", Summary: s}
	}
	return &Report{Schema: ReportSchema, Results: []*Result{res}}
}

func tight(median float64) Summary {
	return Summary{Median: median, Q1: median * 0.99, Q3: median * 1.01, N: 50}
}

func verdicts(rows []Row) map[string]string {
	v := map[string]string{}
	for _, r := range rows {
		v[r.Workload+"/"+r.Metric] = r.Verdict
	}
	return v
}

// TestCompareFlagsRegressions: worsening past the bound, in the metric's
// own direction, and a higher failure share are regressions; a spread
// wider than the bound leaves the pair unresolved.
func TestCompareFlagsRegressions(t *testing.T) {
	a := []*Report{
		report("w1", 0, map[string]Summary{"latency_ms": tight(100), "rate": tight(50)}),
		report("w2", 0, map[string]Summary{"latency_ms": {Median: 100, Q1: 60, Q3: 140, N: 50}, "rate": tight(50)}),
	}
	b := []*Report{
		report("w1", 0, map[string]Summary{"latency_ms": tight(115), "rate": tight(56)}),
		report("w2", 1, map[string]Summary{"latency_ms": tight(150), "rate": tight(40)}),
	}
	got := verdicts(Compare(testSpec, a, b))
	want := map[string]string{
		"w1/latency_ms": "REGRESSION", "w1/rate": "better", "w1/fail_share": "ok",
		"w2/latency_ms": "unresolved", "w2/rate": "REGRESSION", "w2/fail_share": "REGRESSION",
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s: verdict %q, want %q", k, got[k], v)
		}
	}
	if len(got) != len(want) {
		t.Errorf("rows %v, want %v", got, want)
	}
}

// TestCompareRunsPerSide: with several reports a side's value is the
// median of its runs and its spread their quartile spread.
func TestCompareRunsPerSide(t *testing.T) {
	var a, b []*Report
	for _, m := range []float64{100, 102, 98, 101, 99} {
		a = append(a, report("w", 0, map[string]Summary{"latency_ms": tight(m)}))
		b = append(b, report("w", 0, map[string]Summary{"latency_ms": tight(m * 1.05)}))
	}
	rows := Compare(testSpec, a, b)
	if len(rows) != 2 || rows[0].A != 100 || math.Abs(rows[0].B-105) > 1e-9 || rows[0].Verdict != "ok" {
		t.Fatalf("rows %+v", rows)
	}
	if rows[0].Spread < 0.02 || rows[0].Spread > 0.05 {
		t.Fatalf("spread %g, want the quartile spread of the run medians", rows[0].Spread)
	}
}
