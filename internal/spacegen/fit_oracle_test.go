package spacegen

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"starcdn/internal/cache"
	"starcdn/internal/geo"
	"starcdn/internal/trace"
	"starcdn/internal/workload"
)

// fitOracle is the Fit that the dense per-object index replaced, kept as a
// differential oracle: per-object maps keyed by object ID, and per-location
// sub-traces from SplitByLocation.
func fitOracle(tr *trace.Trace) (*Models, error) {
	n := len(tr.Locations)
	if n == 0 {
		return nil, fmt.Errorf("spacegen: trace has no locations")
	}
	if tr.Len() == 0 {
		return nil, fmt.Errorf("spacegen: trace has no requests")
	}
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("spacegen: %w", err)
	}

	// Popularity per object per location, and size per object. Objects are
	// kept in first-appearance order so fitting is deterministic (the tuple
	// order feeds the generator's sampling).
	pops := make(map[cache.ObjectID][]int64)
	sizes := make(map[cache.ObjectID]int64)
	var order []cache.ObjectID
	for i := range tr.Requests {
		r := &tr.Requests[i]
		v, ok := pops[r.Object]
		if !ok {
			v = make([]int64, n)
			pops[r.Object] = v
			order = append(order, r.Object)
		}
		v[r.Location]++
		sizes[r.Object] = r.Size
	}
	gpd := &GPD{Locations: append([]string(nil), tr.Locations...)}
	gpd.Tuples = make([]GPDTuple, 0, len(order))
	for _, obj := range order {
		gpd.Tuples = append(gpd.Tuples, GPDTuple{Pops: pops[obj], Size: sizes[obj]})
	}

	// Per-location stack distances.
	duration := tr.DurationSec()
	if duration <= 0 {
		duration = 1
	}
	pfds := make([]*PFD, n)
	perLoc := tr.SplitByLocation()
	for loc := 0; loc < n; loc++ {
		sub := perLoc[loc]
		pfd := &PFD{
			Location:         tr.Locations[loc],
			ReqRate:          float64(sub.Len()) / duration,
			RateProfile:      oracleRateProfile(sub, tr.Requests[0].TimeSec, duration),
			ProfilePeriodSec: duration,
			bins:             make(map[binKey][]int64),
		}
		oracleStackDistances(sub, pops, loc, pfd)
		pfds[loc] = pfd
	}
	return &Models{GPD: gpd, PFDs: pfds}, nil
}

// oracleRateProfile histograms a location's request times into windows and
// normalises to mean 1. Empty sub-traces fit a flat profile.
func oracleRateProfile(sub *trace.Trace, startSec, duration float64) []float64 {
	profile := make([]float64, rateProfileWindows)
	if sub.Len() == 0 || duration <= 0 {
		for i := range profile {
			profile[i] = 1
		}
		return profile
	}
	for i := range sub.Requests {
		frac := (sub.Requests[i].TimeSec - startSec) / duration
		idx := int(frac * rateProfileWindows)
		if idx < 0 {
			idx = 0
		}
		if idx >= rateProfileWindows {
			idx = rateProfileWindows - 1
		}
		profile[idx]++
	}
	mean := float64(sub.Len()) / rateProfileWindows
	for i := range profile {
		profile[i] /= mean
	}
	return profile
}

// oracleStackDistances computes, for every non-first access of each object at
// this location, the number of unique bytes requested since the previous
// access of the same object, using a Fenwick tree over access positions.
func oracleStackDistances(sub *trace.Trace, pops map[cache.ObjectID][]int64, loc int, pfd *PFD) {
	nReq := sub.Len()
	fen := newFenwick(nReq + 1)
	lastPos := make(map[cache.ObjectID]int, nReq/4+1)
	for i := range sub.Requests {
		r := &sub.Requests[i]
		pos := i + 1 // Fenwick positions are 1-based
		if prev, seen := lastPos[r.Object]; seen {
			// Unique bytes between the accesses: every object whose latest
			// access lies strictly between prev and pos contributes once.
			d := fen.sum(pos-1) - fen.sum(prev)
			pop := pops[r.Object][loc]
			k := keyFor(pop, r.Size)
			pfd.bins[k] = append(pfd.bins[k], d)
			pfd.fallback = append(pfd.fallback, d)
			if d > pfd.MaxStackDist {
				pfd.MaxStackDist = d
			}
			fen.add(prev, -r.Size) // clear the stale latest-position marker
		}
		fen.add(pos, r.Size)
		lastPos[r.Object] = pos
	}
	if pfd.MaxStackDist == 0 {
		// Degenerate trace with no reuse: pick the total footprint so the
		// generator still initialises.
		var total int64
		seen := map[cache.ObjectID]bool{}
		for i := range sub.Requests {
			r := &sub.Requests[i]
			if !seen[r.Object] {
				seen[r.Object] = true
				total += r.Size
			}
		}
		if total == 0 {
			total = 1
		}
		pfd.MaxStackDist = total
	}
}

// TestFitMatchesOracle checks that Fit's models deep-equal the oracle's:
// the same GPD tuples in the same order, and every pFD with the same rate
// profile, bins (contents and order) and marginal.
func TestFitMatchesOracle(t *testing.T) {
	web := workload.Web()
	web.NumObjects = 5000
	wg, err := workload.NewGenerator(web, geo.PaperCities(), 3)
	if err != nil {
		t.Fatal(err)
	}
	webTrace, err := wg.Generate(30_000, 60)
	if err != nil {
		t.Fatal(err)
	}
	// Hand-made edge cases: a location with no requests, an object whose
	// size changes, back-to-back repeats (stack distance 0), and a
	// location whose objects are never reused.
	edge := &trace.Trace{Locations: []string{"a", "b", "c", "d"}}
	for i, r := range []trace.Request{
		{Object: 1, Size: 100}, {Object: 1, Size: 100}, {Object: 2, Size: 3000, Location: 1},
		{Object: 1, Size: 150}, {Object: 3, Size: 70}, {Object: 2, Size: 3000},
		{Object: 4, Size: 5, Location: 3}, {Object: 5, Size: 6, Location: 3}, {Object: 1, Size: 150, Location: 1},
	} {
		r.TimeSec = float64(i) * 0.5
		edge.Append(r)
	}
	// Random traces over a small catalogue with arbitrary object IDs.
	rng := rand.New(rand.NewSource(4))
	random := &trace.Trace{Locations: []string{"x", "y", "z"}}
	for i := 0; i < 5000; i++ {
		random.Append(trace.Request{
			TimeSec:  float64(i) * 0.01,
			Object:   cache.ObjectID(rng.Uint64() % 300 * 0x9E3779B97F4A7C15),
			Size:     int64(1 + rng.Intn(1<<22)),
			Location: rng.Intn(3),
		})
	}
	for name, tr := range map[string]*trace.Trace{
		"video":  productionTrace(t, 20_000),
		"web":    webTrace,
		"edge":   edge,
		"random": random,
	} {
		got, err := Fit(tr)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := fitOracle(tr)
		if err != nil {
			t.Fatalf("%s: oracle: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Fit's models differ from the oracle's", name)
		}
	}
}
