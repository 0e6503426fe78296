package main

import (
	"fmt"
	"sort"
	"time"

	"starcdn/internal/cache"
	"starcdn/internal/orbit"
	"starcdn/internal/replayer"
	"starcdn/internal/sched"
)

// The standalone passes below drive one layer's public functions over the
// workload's own requests, the way sim.Run drives them, so that a layer
// sim.Run calls internally gets a time of its own. Their results feed sink
// so the calls cannot be optimised away.
var sink int64

// schedPass asks a fresh scheduler for every request's first-contact
// satellite, in trace order. It returns those satellites (-1 where none is
// visible) and the epochs the scheduler recomputed, in order.
func schedPass(f *fixture) ([]orbit.SatID, []int64, error) {
	s, err := sched.New(f.c, f.users, 0, f.seed)
	if err != nil {
		return nil, nil, err
	}
	firsts := make([]orbit.SatID, len(f.trace.Requests))
	var epochs []int64
	for i := range f.trace.Requests {
		r := &f.trace.Requests[i]
		first, ok := s.FirstContact(r.Location, r.TimeSec)
		if !ok {
			first = -1
		}
		firsts[i] = first
		if e := int64(r.TimeSec / s.EpochSec()); len(epochs) == 0 || epochs[len(epochs)-1] != e {
			epochs = append(epochs, e)
		}
	}
	return firsts, epochs, nil
}

// orbitPass propagates every active satellite once per epoch: the floor a
// per-epoch position table pays.
func orbitPass(f *fixture, epochs []int64) {
	var acc float64
	for _, e := range epochs {
		t := float64(e) * sched.DefaultEpochSec
		for id := orbit.SatID(0); int(id) < f.c.NumSlots(); id++ {
			if f.c.Active(id) {
				acc += f.c.SubSatellitePoint(id, t).LatDeg
			}
		}
	}
	sink += int64(acc)
}

// corePass resolves every covered request's §3.2 bucket and serving owner,
// as the StarCDN policy does, and returns the number of lookups.
func corePass(f *fixture, firsts []orbit.SatID) int64 {
	var calls, acc int64
	for i := range f.trace.Requests {
		if firsts[i] < 0 {
			continue
		}
		b := f.hash.BucketOf(f.trace.Requests[i].Object)
		owner, _ := f.hash.ServingOwner(firsts[i], b, nil)
		acc += int64(owner)
		calls++
	}
	sink += acc
	return calls
}

// cacheCounts tallies a cachePass.
type cacheCounts struct{ gets, hits, admits int64 }

// cachePass streams the workload's requests through one cache of the
// workload's kind and per-satellite size: Get, and Admit on a miss.
func cachePass(f *fixture) (cacheCounts, error) {
	var n cacheCounts
	c, err := cache.New(cache.LRU, f.spec.cacheBytes)
	if err != nil {
		return n, err
	}
	for i := range f.trace.Requests {
		r := &f.trace.Requests[i]
		n.gets++
		if c.Get(r.Object) {
			n.hits++
			continue
		}
		n.admits++
		// An object larger than the cache bypasses it, as in sim.Run.
		if err := c.Admit(r.Object, r.Size); err != nil && err != cache.ErrTooLarge {
			return n, err
		}
	}
	return n, nil
}

// framePass times n Client.Get round trips that hit, against one server,
// and returns their durations in microseconds, sorted.
func framePass(f *fixture, n int) ([]float64, error) {
	srv, err := replayer.NewServer(0, cache.LRU, f.spec.cacheBytes)
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	cl := replayer.NewClient()
	defer cl.Close()
	const obj, size = 1, 64 << 10
	if err := cl.Admit(srv.Addr(), obj, size); err != nil {
		return nil, err
	}
	us := make([]float64, 0, n)
	// The first round trips dial and warm the connection; they are not kept.
	for i := -n / 10; i < n; i++ {
		start := time.Now()
		hit, err := cl.Get(srv.Addr(), obj, size)
		d := time.Since(start)
		if err != nil {
			return nil, err
		}
		if !hit {
			return nil, fmt.Errorf("frame pass: Get %d missed an admitted object", i)
		}
		if i >= 0 {
			us = append(us, float64(d.Nanoseconds())/1e3)
		}
	}
	sort.Float64s(us)
	return us, nil
}
