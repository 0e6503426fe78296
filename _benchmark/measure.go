package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"starcdn/internal/cache"
	"starcdn/internal/obs"
	"starcdn/internal/sim"
)

const (
	// setupReps is how many times a run builds its fixtures; setup_s is
	// the median.
	setupReps = 3
	// minReps is the fewest measured calls a run makes, however short its
	// measuring time; it always ends on a whole round of its traces.
	minReps = 3
	// frameTrips is the standalone frame pass's sample count; its p99 has
	// 50 samples beyond it.
	frameTrips = 5000
	// tracedReps is how many times a traced run repeats its traced calls
	// and standalone passes.
	tracedReps = 3
)

// reference is the result every call over one trace must reproduce: the
// first measured sim.Run's, or for replay-tcp the meter of sim.Run on the
// same trace and seed.
type reference struct {
	digest string
	sim    *sim.Metrics // nil until known
}

// runner measures one workload. All calls go through attempt, which keeps
// the attempted/failed request counts.
type runner struct {
	fs   []*fixture  // one per trace of the run
	refs []reference // one per trace
	k    int         // the trace the current call runs over
	f    *fixture    // fs[k]
	t    *tracer     // nil when untraced
	vals map[string]float64

	attempted, failed int64
}

// use makes trace k the one the following calls run over.
func (r *runner) use(k int) { r.k, r.f = k, r.fs[k] }

// attempt accounts one call over the whole trace: a call that errs or fails
// the correctness gate counts every request as failed.
func (r *runner) attempt(err error) error {
	n := r.f.requests()
	r.attempted += n
	if err != nil {
		r.failed += n
	}
	return err
}

// measure runs workload s for about seconds of measured calls and returns
// its report: the end-to-end metrics, or with traced the per-layer ones.
// Spans of a traced run are written to spans.
func measure(s spec, seed int64, seconds float64, traced bool, spans io.Writer) (*report, error) {
	r := &runner{vals: make(map[string]float64)}
	if traced {
		r.t = newTracer()
	}
	err := r.run(s, seed, seconds)
	if r.t != nil {
		r.t.write(spans)
	}
	rep := &report{Correct: err == nil, Attempted: r.attempted, Failed: r.failed}
	if err == nil {
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		err = rep.fill(defs, r.vals)
	}
	if err != nil {
		rep.Correct = false
		rep.Metrics = map[string]value{}
		if rep.Attempted == 0 {
			// Set-up failed before any request was issued: count the run
			// itself as the one failed operation.
			rep.Attempted, rep.Failed = 1, 1
		}
	}
	return rep, err
}

func (r *runner) run(s spec, seed int64, seconds float64) error {
	if s.replay {
		// One request is in flight at a time, so one P is all a replay can
		// use. With more, idle runtime threads spin while a frame crosses
		// loopback, and how long they spin depends on the host's load.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}
	root := r.t.begin("bench."+s.name, -1)
	var setupS []float64
	for i := 0; i < setupReps; i++ {
		r.fs, r.f = nil, nil // let the previous fixtures be collected first
		runtime.GC()
		sp := r.t.begin("setup", root)
		start := cpuTime()
		for k := 0; k < s.numTraces(); k++ {
			f, err := setup(s, traceSeed(seed, k), r.t, sp)
			if err != nil {
				return fmt.Errorf("set-up: %w", err)
			}
			r.fs = append(r.fs, f)
		}
		setupS = append(setupS, (cpuTime() - start).Seconds())
		r.t.end(sp)
	}
	r.refs = make([]reference, len(r.fs))
	r.vals["setup_s"] = median(setupS)
	for _, name := range []string{"workload.generate", "spacegen.fit", "spacegen.generate"} {
		r.vals[name+"_s"] = r.t.medianOf(name)
	}

	if s.replay {
		// The sequential replayer must reproduce sim.Run's meter exactly.
		for k := range r.fs {
			r.use(k)
			var w stopwatch
			m, err := r.simCall(r.f.policy(), &w)
			if err != nil {
				return err
			}
			if k == 0 {
				r.t.record("sim.Run", root, w.start, w.wall)
				r.vals["replayer.sim_s"] = w.wall.Seconds()
			}
			r.refs[k] = reference{meterDigest(m.Meter), m}
		}
	}
	if err := resetPeakRSS(); err != nil {
		return err
	}
	costs, err := r.measured(seconds)
	if err != nil {
		return err
	}
	peak, err := peakRSSMB()
	if err != nil {
		return err
	}
	r.vals["peak_rss_mb"] = peak
	// Every trace counts once, at the median cost of its calls.
	var requests int64
	var busy float64
	var meter cache.Meter
	for k, f := range r.fs {
		requests += f.requests()
		busy += median(costs[k])
		meter.Merge(r.refs[k].sim.Meter)
	}
	r.vals["req_per_s"] = float64(requests) / busy
	r.vals["hit_rate_req"] = meter.RequestHitRate()
	r.vals["hit_rate_byte"] = meter.ByteHitRate()

	if r.t != nil {
		// The traced calls and passes run over the first trace only.
		r.use(0)
		if err := r.traced(root); err != nil {
			return err
		}
	}
	r.t.end(root)
	return nil
}

// resetPeakRSS hands freed memory back to the OS and restarts the kernel's
// peak-RSS count, so that peakRSSMB covers only what follows. The measured
// calls are metered this way because set-up's peak depends on when the
// garbage collector happens to run, which made it too noisy to compare.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB returns the process's peak resident set size since the last
// resetPeakRSS, in MiB.
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(status), "\n") {
		if kb, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(kb, "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("read peak RSS: %w", err)
			}
			return v / 1024, nil
		}
	}
	return 0, fmt.Errorf("read peak RSS: no VmHWM line in /proc/self/status")
}

// cpuTime returns the CPU time, user and system, that all threads of the
// process have used so far. Set-up and the measured calls are charged CPU
// time: they never wait, and on a shared virtual machine, time the host
// steals from the guest moved a call's wall time by 30% within a minute,
// while its CPU time moved by 4%.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stopwatch times one call, in wall and in CPU time. The call starts from a
// collected heap, and the allocation counters are read outside the timed
// region.
type stopwatch struct {
	before, after runtime.MemStats
	start         time.Time
	wall, cpu     time.Duration
}

func (w *stopwatch) begin() {
	runtime.GC()
	runtime.ReadMemStats(&w.before)
	w.cpu = cpuTime()
	w.start = time.Now()
}

func (w *stopwatch) stop() {
	w.wall = time.Since(w.start)
	w.cpu = cpuTime() - w.cpu
	runtime.ReadMemStats(&w.after)
}

// simCall runs sim.Run over the trace with p and applies the correctness
// gate to the result.
func (r *runner) simCall(p sim.Policy, w *stopwatch) (*sim.Metrics, error) {
	w.begin()
	m, err := r.f.simRun(p)
	w.stop()
	if err == nil {
		err = checkSim(m, r.f.requests())
	}
	if err != nil {
		err = fmt.Errorf("sim.Run: %w", err)
	}
	return m, r.attempt(err)
}

// replayCall replays the trace over a fresh cluster and returns the meter
// and how many servers the replay started. w times Replay alone.
func (r *runner) replayCall(reg *obs.Registry, w *stopwatch) (cache.Meter, int, error) {
	cl, err := r.f.newCluster()
	if err != nil {
		return cache.Meter{}, 0, r.attempt(err)
	}
	w.begin()
	m, err := r.f.replay(cl, reg)
	w.stop()
	servers := cl.Len()
	err = errors.Join(err, cl.Close())
	if err == nil && m.Requests != r.f.requests() {
		err = fmt.Errorf("meter counts %d requests, trace has %d", m.Requests, r.f.requests())
	}
	if err != nil {
		err = fmt.Errorf("replayer.Replay: %w", err)
	}
	return m, servers, r.attempt(err)
}

// check compares a call's digest with its trace's reference.
func (r *runner) check(what, got string) error {
	want := r.refs[r.k].digest
	if got == want {
		return nil
	}
	r.failed += r.f.requests()
	return fmt.Errorf("%s: result differs from the reference run\n got  %s\n want %s", what, got, want)
}

// call makes one untraced call of the measured kind over the current trace
// and checks its result against the trace's reference digest; the first
// sim.Run call over the trace sets it.
func (r *runner) call(what string, w *stopwatch) error {
	var got string
	if r.f.spec.replay {
		m, _, err := r.replayCall(nil, w)
		if err != nil {
			return err
		}
		got = meterDigest(m)
	} else {
		m, err := r.simCall(r.f.policy(), w)
		if err != nil {
			return err
		}
		got = simDigest(m)
		if r.refs[r.k].sim == nil {
			r.refs[r.k] = reference{got, m}
		}
	}
	return r.check(what, got)
}

// measured makes untraced calls, going round the traces, for about seconds
// and at least minReps calls, and stops only where a round ends: it starts
// another round only while at least half a round's time is left. It
// returns each call's cost by trace: its CPU time in seconds. A replay runs
// on one P (see run), where its loopback round trips never wait, so its
// wall time is its CPU time plus whatever the host and other processes took
// from it.
func (r *runner) measured(seconds float64) ([][]float64, error) {
	costs := make([][]float64, len(r.fs))
	var allocs, bytes, gcs []float64
	budget := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	roundStart := start
	for i := 0; ; i++ {
		if i > 0 && i%len(r.fs) == 0 {
			now := time.Now()
			round := now.Sub(roundStart)
			roundStart = now
			if i >= minReps && budget-now.Sub(start) < round/2 {
				break
			}
		}
		r.use(i % len(r.fs))
		n := float64(r.f.requests())
		var w stopwatch
		if err := r.call(fmt.Sprintf("measured call %d", i), &w); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "call %d trace %d wall=%.4fs cpu=%.4fs\n", i, r.k, w.wall.Seconds(), w.cpu.Seconds())
		costs[r.k] = append(costs[r.k], w.cpu.Seconds())
		allocs = append(allocs, float64(w.after.Mallocs-w.before.Mallocs)/n)
		bytes = append(bytes, float64(w.after.TotalAlloc-w.before.TotalAlloc)/n)
		gcs = append(gcs, float64(w.after.NumGC-w.before.NumGC))
	}
	r.vals["runtime.allocs_per_req"] = median(allocs)
	r.vals["runtime.bytes_per_req"] = median(bytes)
	r.vals["runtime.gc_cycles"] = median(gcs)
	return costs, nil
}

// traced makes an untraced and a traced call of the measured kind, then
// drives each layer's public functions standalone over the workload's
// requests. It does so tracedReps times and reports the median of each
// value, because one traced call's time moved by 30% between runs of one
// seed. trace.overhead_pct compares each traced call with the untraced call
// just before it, so that the host's drift over a run does not count as
// overhead.
func (r *runner) traced(root int) error {
	for _, d := range perLayer {
		if _, ok := r.vals[d.Name]; !ok {
			r.vals[d.Name] = 0 // a layer this workload does not exercise
		}
	}
	samples := map[string][]float64{}
	add := func(name string, v float64) { samples[name] = append(samples[name], v) }
	for i := 0; i < tracedReps; i++ {
		var w stopwatch
		if err := r.call(fmt.Sprintf("paired call %d", i), &w); err != nil {
			return err
		}
		untraced := w.cpu.Seconds()
		cost, err := r.tracedSim(root, add)
		if err != nil {
			return err
		}
		if r.f.spec.replay {
			if cost, err = r.tracedReplay(root, add); err != nil {
				return err
			}
		}
		add("trace.overhead_pct", (cost-untraced)/untraced*100)
		if err := r.passes(root, add); err != nil {
			return err
		}
	}
	for name, xs := range samples {
		r.vals[name] = median(xs)
	}
	return nil
}

// passes drives each layer's public functions standalone over the
// workload's requests and passes their per-layer values to add.
func (r *runner) passes(root int, add func(string, float64)) error {
	f := r.f
	if f.spec.replay {
		sp := r.t.begin("replayer.Client.Get", root)
		us, err := framePass(f, frameTrips)
		r.t.end(sp)
		if err != nil {
			return err
		}
		p50, _ := percentile(us, 50)
		p99, _ := percentile(us, 99)
		add("replayer.frame_us_p50", p50)
		add("replayer.frame_us_p99", p99)
	}

	sp := r.t.begin("sched.FirstContact", root)
	firsts, epochs, err := schedPass(f)
	firstS := r.t.end(sp)
	if err != nil {
		return err
	}
	add("sched.first_contact_s", firstS)
	add("sched.epochs", float64(len(epochs)))
	add("sched.epoch_ms", ratio(firstS*1e3, float64(len(epochs))))

	sp = r.t.begin("orbit.SubSatellitePoint", root)
	orbitPass(f, epochs)
	add("orbit.propagate_s", r.t.end(sp))

	sp = r.t.begin("core.ServingOwner", root)
	calls := corePass(f, firsts)
	add("core.serving_owner_s", r.t.end(sp))
	add("core.owner_calls", float64(calls))

	sp = r.t.begin("cache.Policy", root)
	cc, err := cachePass(f)
	add("cache.op_s", r.t.end(sp))
	if err != nil {
		return err
	}
	add("cache.gets", float64(cc.gets))
	add("cache.hits", float64(cc.hits))
	add("cache.admits", float64(cc.admits))
	return nil
}

// tracedSim runs sim.Run with one span per Serve call, applies the
// correctness gate, passes its per-layer values to add and returns its cost.
func (r *runner) tracedSim(root int, add func(string, float64)) (float64, error) {
	f := r.f
	var w stopwatch
	p := newTimedPolicy(f.policy(), r.t, int(f.requests()))
	m, err := r.simCall(p, &w)
	if err != nil {
		return 0, err
	}
	sp := r.t.record("sim.Run", root, w.start, w.wall)
	got := simDigest(m)
	if f.spec.replay {
		got = meterDigest(m.Meter)
	}
	if err := r.check("traced sim.Run", got); err != nil {
		return 0, err
	}
	var serve time.Duration
	ns := make([]float64, len(p.serve))
	for i, iv := range p.serve {
		serve += iv.dur()
		ns[i] = float64(iv.dur().Nanoseconds())
	}
	sort.Float64s(ns)
	p50, ok50 := percentile(ns, 50)
	p99, ok99 := percentile(ns, 99)
	if !ok50 || !ok99 {
		return 0, fmt.Errorf("%d Serve spans are too few for a p99", len(ns))
	}
	add("sim.run_s", w.wall.Seconds())
	add("sim.serve_s", serve.Seconds())
	add("sim.self_s", selfTime(r.t.spans[sp].interval, p.serve).Seconds())
	add("sim.serve_ns_p50", p50)
	add("sim.serve_ns_p99", p99)
	for _, src := range []sim.Source{sim.SourceLocal, sim.SourceBucket,
		sim.SourceRelayWest, sim.SourceRelayEast, sim.SourceGround, sim.SourceNoCover} {
		add("sim.src."+src.String(), float64(m.BySource[src]))
	}
	relay := float64(m.BySource[sim.SourceRelayWest] + m.BySource[sim.SourceRelayEast])
	add("sim.relay_rescue_frac", ratio(relay, relay+float64(m.BySource[sim.SourceGround])))
	add("sim.uplink_bytes", float64(m.UplinkBytes))
	add("sim.isl_byte_hops", float64(m.ISLBytes))
	return w.cpu.Seconds(), nil
}

// tracedReplay replays the trace with the client counters exported through
// Options.Obs, applies the correctness gate, passes its per-layer values to
// add and returns its cost.
func (r *runner) tracedReplay(root int, add func(string, float64)) (float64, error) {
	f := r.f
	var w stopwatch
	reg := obs.NewRegistry()
	meter, servers, err := r.replayCall(reg, &w)
	if err != nil {
		return 0, err
	}
	r.t.record("replayer.Replay", root, w.start, w.wall)
	if err := r.check("traced replayer.Replay", meterDigest(meter)); err != nil {
		return 0, err
	}
	attempts := float64(reg.Counter("starcdn_client_attempts_total").Value())
	netS := w.wall.Seconds() - r.vals["replayer.sim_s"]
	add("replayer.replay_s", w.wall.Seconds())
	add("replayer.net_s", netS)
	add("replayer.servers", float64(servers))
	add("replayer.attempts", attempts)
	add("replayer.retries", float64(reg.Counter("starcdn_client_retries_total").Value()))
	add("replayer.failures", float64(reg.Counter("starcdn_client_failures_total").Value()))
	add("replayer.frames_per_req", attempts/float64(f.requests()))
	add("replayer.net_us_per_frame", ratio(netS*1e6, attempts))
	return w.cpu.Seconds(), nil
}
