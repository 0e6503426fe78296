package main

import (
	"fmt"
	"strings"

	"starcdn/internal/cache"
	"starcdn/internal/core"
	"starcdn/internal/geo"
	"starcdn/internal/obs"
	"starcdn/internal/orbit"
	"starcdn/internal/replayer"
	"starcdn/internal/sim"
	"starcdn/internal/spacegen"
	"starcdn/internal/topo"
	"starcdn/internal/trace"
	"starcdn/internal/workload"
)

// spec is one workload: what its set-up builds and what each measured call
// runs. README.md records why each was chosen.
type spec struct {
	name string
	// The production trace: traffic class, catalogue size, and request count
	// over a span of simulated time.
	class       string
	objects     int
	requests    int
	durationSec float64
	// synthetic, when positive, fits SpaceGEN on the production trace and
	// measures a generated trace of this many requests instead.
	synthetic int
	// StarCDN (hashing+relay) with L buckets and an LRU cache of cacheBytes
	// per satellite.
	buckets    int
	cacheBytes int64
	// replay measures the sequential TCP replayer instead of sim.Run.
	replay bool
	// traces, when above one, is how many traces a run measures, each
	// generated from a seed of its own (traceSeed); the measured calls go
	// round them. This pools away how much one seed's catalogue moves the
	// result.
	traces int
}

var workloads = []spec{
	// BenchmarkSimHotPath's inputs: the Small-scale video trace, 720 epochs
	// of ~208 requests each.
	{name: "sim-video-sparse", class: "video", objects: 8000,
		requests: 150_000, durationSec: 3 * 3600, buckets: 4, cacheBytes: 256 << 20},
	// A SpaceGEN trace at ~30k requests per 15 s epoch over 60k web objects.
	{name: "sim-web-dense", class: "web", objects: 60_000,
		requests: 600_000, durationSec: 300, synthetic: 1_500_000,
		buckets: 9, cacheBytes: 32 << 20},
	// 100k video requests over 15 min (60 epochs) through loopback TCP.
	// Five traces per run: over ten seeds, one trace's request hit rate
	// ranged from 0.63 to 0.90 and its replay speed from 19k to 32k req/s.
	{name: "replay-tcp", class: "video", objects: 8000,
		requests: 100_000, durationSec: 900, buckets: 4, cacheBytes: 256 << 20,
		replay: true, traces: 5},
}

func (s spec) numTraces() int { return max(s.traces, 1) }

// traceSeed is the seed of a run's trace k: the run's seed for the first,
// and for the others seeds that no other run seed below 2^32 shares.
func traceSeed(seed int64, k int) int64 { return seed + int64(k)<<32 }

func findSpec(name string) (spec, bool) {
	for _, s := range workloads {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, s := range workloads {
		names[i] = s.name
	}
	return strings.Join(names, ", ")
}

// scaled shrinks a workload's request counts and time span by f, keeping
// requests per epoch. The tests run workloads this way.
func (s spec) scaled(f float64) spec {
	s.requests = int(float64(s.requests) * f)
	s.durationSec *= f
	s.synthetic = int(float64(s.synthetic) * f)
	return s
}

// fixture is a built system plus the trace the measured calls replay.
type fixture struct {
	spec  spec
	seed  int64
	c     *orbit.Constellation
	users []geo.Point
	hash  *core.HashScheme
	trace *trace.Trace
}

// setup builds the constellation and hash scheme and generates the
// workload's trace from seed, recording one span per generator call under
// parent.
func setup(s spec, seed int64, t *tracer, parent int) (*fixture, error) {
	c, err := orbit.New(orbit.DefaultStarlinkShell())
	if err != nil {
		return nil, err
	}
	h, err := core.NewHashScheme(topo.NewGrid(c, topo.StarlinkTable1()), s.buckets)
	if err != nil {
		return nil, err
	}
	cities := geo.PaperCities()
	users := make([]geo.Point, len(cities))
	for i, city := range cities {
		users[i] = city.Point
	}
	cls, err := workload.ClassByName(s.class)
	if err != nil {
		return nil, err
	}
	// The experiments' scaled classes trim the size tail the same way.
	cls.NumObjects = s.objects
	cls.MaxSizeBytes = min(cls.MaxSizeBytes, 64<<20)

	sp := t.begin("workload.generate", parent)
	g, err := workload.NewGenerator(cls, cities, seed)
	if err != nil {
		return nil, err
	}
	tr, err := g.Generate(s.requests, s.durationSec)
	if err != nil {
		return nil, err
	}
	t.end(sp)

	if s.synthetic > 0 {
		sp = t.begin("spacegen.fit", parent)
		models, err := spacegen.Fit(tr)
		if err != nil {
			return nil, err
		}
		t.end(sp)
		sp = t.begin("spacegen.generate", parent)
		sg, err := spacegen.NewGenerator(models, seed)
		if err != nil {
			return nil, err
		}
		if tr, err = sg.Generate(s.synthetic); err != nil {
			return nil, err
		}
		t.end(sp)
	}
	return &fixture{spec: s, seed: seed, c: c, users: users, hash: h, trace: tr}, nil
}

func (f *fixture) requests() int64 { return int64(len(f.trace.Requests)) }

// policy returns a fresh StarCDN policy with empty caches.
func (f *fixture) policy() sim.Policy {
	return sim.NewStarCDN(f.hash,
		sim.CacheConfig{Kind: cache.LRU, Bytes: f.spec.cacheBytes},
		sim.StarCDNOptions{Hashing: true, Relay: true})
}

func (f *fixture) simRun(p sim.Policy) (*sim.Metrics, error) {
	return sim.Run(f.c, f.users, f.trace, p, sim.Config{Seed: f.seed})
}

// newCluster returns an empty cluster; its servers start lazily, inside
// Replay, as the trace reaches their satellites.
func (f *fixture) newCluster() (*replayer.Cluster, error) {
	return replayer.NewCluster(cache.LRU, f.spec.cacheBytes)
}

func (f *fixture) replay(cl *replayer.Cluster, reg *obs.Registry) (cache.Meter, error) {
	return replayer.Replay(f.hash, cl, f.users, f.trace,
		replayer.Options{Hashing: true, Relay: true, Seed: f.seed, Obs: reg})
}

// meterDigest renders a meter for equality checks.
func meterDigest(m cache.Meter) string {
	return fmt.Sprintf("req=%d hit=%d bytes=%d byteshit=%d bytesmissed=%d",
		m.Requests, m.Hits, m.BytesTotal, m.BytesHit, m.BytesMissed)
}

// simDigest renders everything a run's correctness depends on: the meter,
// the uplink and ISL volumes, and the per-source request counts.
func simDigest(m *sim.Metrics) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s uplink=%d isl=%d", meterDigest(m.Meter), m.UplinkBytes, m.ISLBytes)
	for _, src := range sim.Sources() {
		fmt.Fprintf(&b, " %s=%d", src, m.BySource[src])
	}
	return b.String()
}

// checkSim verifies a run's internal consistency: one meter entry and one
// source per request, hits exactly the cache-served sources, and (with no
// shedding or ground-edge caches) uplink exactly the missed bytes.
func checkSim(m *sim.Metrics, requests int64) error {
	if m.Meter.Requests != requests {
		return fmt.Errorf("meter counts %d requests, trace has %d", m.Meter.Requests, requests)
	}
	var total, hits int64
	for src, k := range m.BySource {
		total += k
		if src.Hit() {
			hits += k
		}
	}
	if total != requests {
		return fmt.Errorf("sources sum to %d requests, trace has %d", total, requests)
	}
	if hits != m.Meter.Hits {
		return fmt.Errorf("cache-served sources sum to %d, meter counts %d hits", hits, m.Meter.Hits)
	}
	if m.UplinkBytes != m.Meter.BytesMissed {
		return fmt.Errorf("uplink %d bytes, meter missed %d bytes", m.UplinkBytes, m.Meter.BytesMissed)
	}
	return nil
}
