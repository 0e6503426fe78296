package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// metricDef names one reported metric. The catalogues below must list
// exactly the metrics BENCHMARK.json declares; metrics_test.go checks that.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"; empty for per-layer metrics
}

// endToEnd are the user-visible metrics, measured with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"req_per_s", "req/s", "higher"},
	{"peak_rss_mb", "MB", "lower"},
	{"hit_rate_req", "ratio", "higher"},
	{"hit_rate_byte", "ratio", "higher"},
}

// perLayer are the traced run's metrics. A layer a workload does not
// exercise (SpaceGEN outside sim-web-dense, the replayer outside replay-tcp)
// reports 0.
var perLayer = []metricDef{
	{"workload.generate_s", "s", ""},
	{"spacegen.fit_s", "s", ""},
	{"spacegen.generate_s", "s", ""},
	{"orbit.propagate_s", "s", ""},
	{"sched.first_contact_s", "s", ""},
	{"sched.epochs", "count", ""},
	{"sched.epoch_ms", "ms", ""},
	{"core.serving_owner_s", "s", ""},
	{"core.owner_calls", "count", ""},
	{"cache.op_s", "s", ""},
	{"cache.gets", "count", ""},
	{"cache.hits", "count", ""},
	{"cache.admits", "count", ""},
	{"sim.run_s", "s", ""},
	{"sim.serve_s", "s", ""},
	{"sim.self_s", "s", ""},
	{"sim.serve_ns_p50", "ns", ""},
	{"sim.serve_ns_p99", "ns", ""},
	{"sim.src.local", "count", ""},
	{"sim.src.bucket", "count", ""},
	{"sim.src.relay-west", "count", ""},
	{"sim.src.relay-east", "count", ""},
	{"sim.src.ground", "count", ""},
	{"sim.src.no-coverage", "count", ""},
	{"sim.relay_rescue_frac", "ratio", ""},
	{"sim.uplink_bytes", "bytes", ""},
	{"sim.isl_byte_hops", "byte-hops", ""},
	{"runtime.allocs_per_req", "count", ""},
	{"runtime.bytes_per_req", "bytes", ""},
	{"runtime.gc_cycles", "count", ""},
	{"replayer.replay_s", "s", ""},
	{"replayer.sim_s", "s", ""},
	{"replayer.net_s", "s", ""},
	{"replayer.servers", "count", ""},
	{"replayer.attempts", "count", ""},
	{"replayer.retries", "count", ""},
	{"replayer.failures", "count", ""},
	{"replayer.frames_per_req", "count", ""},
	{"replayer.net_us_per_frame", "us", ""},
	{"replayer.frame_us_p50", "us", ""},
	{"replayer.frame_us_p99", "us", ""},
	{"trace.overhead_pct", "%", ""},
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validName reports whether s may name a metric or a workload.
func validName(s string) bool { return nameRE.MatchString(s) }

// validUnit reports whether s may be a metric's unit.
func validUnit(s string) bool { return unitRE.MatchString(s) }

// median returns the middle of xs (the mean of the two middle values for an
// even count); xs is not modified. It is 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minBeyond is how many samples must lie above a percentile before it is
// reported: a p99 needs at least 1000 samples.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of sorted and whether
// it may be reported, i.e. at least minBeyond samples lie beyond its rank.
func percentile(sorted []float64, p float64) (float64, bool) {
	n := len(sorted)
	if n == 0 || p <= 0 || p >= 100 {
		return 0, false
	}
	rank := int(math.Ceil(p / 100 * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, false
	}
	return sorted[rank-1], true
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// report is one workload run's outcome, printed as the JSON last line.
type report struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// fill copies the catalogue's metrics from vals into r.Metrics. Every
// catalogue metric must be present and finite.
func (r *report) fill(defs []metricDef, vals map[string]float64) error {
	if r.Metrics == nil {
		r.Metrics = make(map[string]value, len(defs))
	}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.Name, v)
		}
		if !validName(d.Name) || !validUnit(d.Unit) {
			return fmt.Errorf("metric %s has an invalid name or unit %q", d.Name, d.Unit)
		}
		r.Metrics[d.Name] = value{Value: v, Unit: d.Unit}
	}
	return nil
}

// write prints one "name value unit" line per metric, sorted by name, then
// the report as a single JSON line, which is always the last line.
func (r *report) write(w io.Writer) error {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	bw := bufio.NewWriter(w)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(bw, "%s %s %s\n", n, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	bw.Write(line)
	bw.WriteByte('\n')
	return bw.Flush()
}

// parseOutput reads back what write printed: the metric lines and the final
// JSON report. It fails on any other line and when the two disagree.
func parseOutput(rd io.Reader) (*report, error) {
	var lines []string
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		if l := strings.TrimSpace(sc.Text()); l != "" {
			lines = append(lines, l)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(lines) == 0 {
		return nil, fmt.Errorf("no output")
	}
	var r report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return nil, fmt.Errorf("last line is not a report: %w", err)
	}
	seen := 0
	for _, l := range lines[:len(lines)-1] {
		f := strings.Fields(l)
		if len(f) != 3 {
			return nil, fmt.Errorf("line %q is not \"name value unit\"", l)
		}
		m, ok := r.Metrics[f[0]]
		if !ok {
			return nil, fmt.Errorf("metric line %q is not in the report", l)
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			return nil, fmt.Errorf("metric line %q: %w", l, err)
		}
		if v != m.Value || f[2] != m.Unit {
			return nil, fmt.Errorf("metric line %q disagrees with the report (%v %s)", l, m.Value, m.Unit)
		}
		seen++
	}
	if seen != len(r.Metrics) {
		return nil, fmt.Errorf("%d metric lines for %d reported metrics", seen, len(r.Metrics))
	}
	return &r, nil
}
