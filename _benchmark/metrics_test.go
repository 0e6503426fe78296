package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

func TestNamesAndUnits(t *testing.T) {
	for _, ok := range []string{"a", "setup_s", "sim.src.relay-west", "9x", strings.Repeat("a", 64)} {
		if !validName(ok) {
			t.Errorf("validName(%q) = false, want true", ok)
		}
	}
	for _, bad := range []string{"", "_a", ".a", "-a", "a b", "a/b", "a%", "é", strings.Repeat("a", 65)} {
		if validName(bad) {
			t.Errorf("validName(%q) = true, want false", bad)
		}
	}
	for _, ok := range []string{"s", "req/s", "%", "byte-hops", "1/s", strings.Repeat("u", 16)} {
		if !validUnit(ok) {
			t.Errorf("validUnit(%q) = false, want true", ok)
		}
	}
	for _, bad := range []string{"", "a b", "a:b", strings.Repeat("u", 17)} {
		if validUnit(bad) {
			t.Errorf("validUnit(%q) = true, want false", bad)
		}
	}

	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !validName(d.Name) || !validUnit(d.Unit) {
			t.Errorf("metric %q has an invalid name or unit %q", d.Name, d.Unit)
		}
		if seen[d.Name] {
			t.Errorf("metric %q is listed twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, s := range workloads {
		if !validName(s.name) {
			t.Errorf("workload %q has an invalid name", s.name)
		}
		// runAll names metrics "<workload>.<metric>".
		for _, d := range endToEnd {
			if n := s.name + "." + d.Name; !validName(n) {
				t.Errorf("combined metric name %q is invalid", n)
			}
		}
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps the metrics the program prints
// and the ones BENCHMARK.json declares the same.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string }         `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range bj.EndToEnd {
		if d := endToEnd[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.PerLayer {
		if d := perLayer[i]; m.Name != d.Name || m.Unit != d.Unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{10, 10, 1, 7, 10}, 10},
	} {
		in := append([]float64(nil), c.in...)
		if got := median(in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
		for i := range in {
			if in[i] != c.in[i] {
				t.Errorf("median modified its input: %v", in)
			}
		}
	}
}

func TestPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, c := range []struct {
		n      int
		p      float64
		want   float64
		report bool
	}{
		// Nearest rank: ceil(p/100*n); reported with >= 10 samples beyond.
		{1000, 99, 990, true}, // rank 990, 10 beyond
		{999, 99, 0, false},   // rank 990, 9 beyond
		{2000, 99, 1980, true},
		{20, 50, 10, true},   // rank 10, 10 beyond
		{19, 50, 0, false},   // rank 10, 9 beyond
		{11, 1, 1, true},     // rank 1, 10 beyond
		{0, 50, 0, false},    // no samples
		{100, 100, 0, false}, // nothing lies beyond the maximum
	} {
		got, ok := percentile(seq(c.n), c.p)
		if ok != c.report || (ok && got != c.want) {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", c.n, c.p, got, ok, c.want, c.report)
		}
	}
}

func TestSelfTime(t *testing.T) {
	iv := func(a, b time.Duration) interval { return interval{Start: a, End: b} }
	parent := iv(0, 100)
	for _, c := range []struct {
		name     string
		children []interval
		want     time.Duration
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{iv(10, 20), iv(50, 60)}, 80},
		{"overlapping counted once", []interval{iv(10, 20), iv(15, 30), iv(50, 60)}, 70},
		{"unsorted", []interval{iv(50, 60), iv(15, 30), iv(10, 20)}, 70},
		{"clipped to the parent", []interval{iv(-10, 5), iv(90, 120)}, 85},
		{"outside the parent", []interval{iv(100, 110), iv(-20, -10)}, 100},
		{"nested", []interval{iv(10, 90), iv(20, 30)}, 20},
		{"covering", []interval{iv(0, 100)}, 0},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %v, want %v", c.name, got, c.want)
		}
	}

	// A traced parent whose children come from the tracer.
	tr := newTracer()
	root := tr.record("root", -1, tr.origin, 100)
	tr.record("a", root, tr.origin.Add(10), 20)
	tr.record("b", root, tr.origin.Add(20), 30)
	if got := selfTime(tr.spans[root].interval, tr.children(root)); got != 60 {
		t.Errorf("tracer spans: selfTime = %v, want 60ns", got)
	}
}

func TestOutputParsesBack(t *testing.T) {
	vals := map[string]float64{}
	for i, d := range perLayer {
		vals[d.Name] = float64(i) * 1.0000000000000002e-7
	}
	vals["sim.uplink_bytes"] = 1.36315585298e+11
	rep := &report{Correct: true, Attempted: 1500000, Failed: 0}
	if err := rep.fill(perLayer, vals); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.write(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(perLayer)+1 {
		t.Fatalf("%d lines for %d metrics", len(lines), len(perLayer))
	}
	got, err := parseOutput(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Correct != rep.Correct || got.Attempted != rep.Attempted || got.Failed != rep.Failed {
		t.Errorf("parsed %+v, wrote %+v", got, rep)
	}
	for _, d := range perLayer {
		if g := got.Metrics[d.Name]; g.Value != vals[d.Name] || g.Unit != d.Unit {
			t.Errorf("%s: parsed %v %s, wrote %v %s", d.Name, g.Value, g.Unit, vals[d.Name], d.Unit)
		}
	}

	tampered := strings.Replace(buf.String(), "sim.uplink_bytes 1.36315585298e+11 bytes", "sim.uplink_bytes 1.36315585299e+11 bytes", 1)
	if tampered == buf.String() {
		t.Fatal("tamper target not found in output")
	}
	if _, err := parseOutput(strings.NewReader(tampered)); err == nil {
		t.Error("a metric line that disagrees with the report parsed")
	}
	if _, err := parseOutput(strings.NewReader("progress\n" + buf.String())); err == nil {
		t.Error("a stray line parsed")
	}

	delete(vals, "sim.run_s")
	if err := (&report{}).fill(perLayer, vals); err == nil {
		t.Error("fill accepted a missing metric")
	}
}
