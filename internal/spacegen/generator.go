package spacegen

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"starcdn/internal/cache"
	"starcdn/internal/trace"
)

// Generator runs Algorithm 1 of the paper: correlated synthetic trace
// generation from a GPD and per-location pFDs.
type Generator struct {
	models *Models
	rng    *rand.Rand
	// caches[i] is the generation cache C_i for location i.
	caches []*byteList
	// dists[i] holds location i's stack-distance sample set for every
	// (popularity, size) bin a GPD tuple can produce, resolved once at
	// construction (see distBin). A nil set means the pFD has none, and
	// draws return its MaxStackDist.
	dists [][][]int64
	// popBins is the number of popularity bins in each dists[i] row.
	popBins int
	// nextObj allocates synthetic object IDs.
	nextObj cache.ObjectID
}

// NewGenerator prepares a generator from fitted models. Synthetic object IDs
// are freshly allocated and unrelated to production IDs.
func NewGenerator(models *Models, seed int64) (*Generator, error) {
	if models == nil || models.GPD == nil || len(models.GPD.Tuples) == 0 {
		return nil, fmt.Errorf("spacegen: empty models")
	}
	if len(models.PFDs) != len(models.GPD.Locations) {
		return nil, fmt.Errorf("spacegen: %d pFDs for %d locations",
			len(models.PFDs), len(models.GPD.Locations))
	}
	if err := models.ValidateRates(); err != nil {
		return nil, err
	}
	g := &Generator{
		models:  models,
		rng:     rand.New(rand.NewSource(seed)),
		nextObj: 1,
	}
	n := len(models.GPD.Locations)
	g.caches = make([]*byteList, n)
	for i := 0; i < n; i++ {
		g.caches[i] = newByteList(uint64(seed) + uint64(i)*0x1000193 + 1)
	}
	g.resolveBins()
	g.initialize()
	return g, nil
}

// resolveBins fills dists: every entry the generator creates carries a
// (popularity, size) pair from some GPD tuple, so the bins those pairs fall
// in bound the table, and each cell holds what PFD.SampleStackDistance's
// bin search would find for it.
func (g *Generator) resolveBins() {
	var maxP, maxS uint8
	for _, tup := range g.models.GPD.Tuples {
		s := log2Bucket(tup.Size >> 10)
		for _, p := range tup.Pops {
			if p > 0 {
				maxP = max(maxP, log2Bucket(p))
				maxS = max(maxS, s)
			}
		}
	}
	g.popBins = int(maxP) + 1
	g.dists = make([][][]int64, len(g.models.PFDs))
	for i, pfd := range g.models.PFDs {
		row := make([][]int64, g.popBins*(int(maxS)+1))
		for j := range row {
			row[j] = pfd.distances(binKey{p: uint8(j % g.popBins), s: uint8(j / g.popBins)})
		}
		g.dists[i] = row
	}
}

// distBin returns location i's stack-distance sample set for an entry.
func (g *Generator) distBin(i int, e *Entry) []int64 {
	k := keyFor(e.Pop, e.Size)
	return g.dists[i][int(k.s)*g.popBins+int(k.p)]
}

// sampleObject draws a fresh object from the GPD and inserts it at the back
// of every location cache where its popularity is positive (Algorithm 1,
// lines 9-14 and line 25).
func (g *Generator) sampleObject() {
	tup := g.models.GPD.Sample(g.rng)
	id := g.nextObj
	g.nextObj++
	for i, p := range tup.Pops {
		if p > 0 {
			g.caches[i].PushBack(Entry{Obj: id, Size: tup.Size, Pop: p})
		}
	}
}

// initialize fills every cache until it is at least as large as the maximum
// stack distance of its location's pFD (Algorithm 1, phase 1).
func (g *Generator) initialize() {
	needMore := func() bool {
		for i, c := range g.caches {
			if c.TotalBytes() < g.models.PFDs[i].MaxStackDist {
				return true
			}
		}
		return false
	}
	// The guard bounds pathological models where some location's popularity
	// never appears in the GPD; 100x the tuple count is far beyond any
	// realistic fill requirement.
	for guard := 100 * len(g.models.GPD.Tuples); needMore() && guard > 0; guard-- {
		g.sampleObject()
	}
}

// Generate emits approximately totalRequests requests. Time advances in
// one-second ticks; each location emits requests at its fitted rate, so the
// synthetic trace reproduces the production trace's per-location volumes
// (Algorithm 1, phase 2).
func (g *Generator) Generate(totalRequests int) (*trace.Trace, error) {
	if totalRequests <= 0 {
		return nil, fmt.Errorf("spacegen: totalRequests must be positive")
	}
	n := len(g.caches)
	tr := &trace.Trace{
		Locations: append([]string(nil), g.models.GPD.Locations...),
		Requests:  make([]trace.Request, 0, totalRequests),
	}
	counter := make([]float64, n)
	emitted := 0
	for tick := 0; emitted < totalRequests; tick++ {
		progressed := false
		for i := 0; i < n && emitted < totalRequests; i++ {
			pfd := g.models.PFDs[i]
			rate := pfd.ReqRate
			if pfd.ProfilePeriodSec > 0 {
				frac := math.Mod(float64(tick), pfd.ProfilePeriodSec) / pfd.ProfilePeriodSec
				rate *= pfd.RateAt(frac)
			}
			counter[i] += rate
			emitThisTick := 0
			for counter[i] >= 1 && emitted < totalRequests {
				counter[i]--
				if g.emitOne(tr, i, float64(tick), &emitThisTick) {
					emitted++
					progressed = true
				}
			}
		}
		if !progressed && allRatesZero(g.models.PFDs) {
			return nil, fmt.Errorf("spacegen: all locations have zero request rate")
		}
	}
	tr.Sort()
	return tr, nil
}

func allRatesZero(pfds []*PFD) bool {
	for _, p := range pfds {
		if p.ReqRate > 0 {
			return false
		}
	}
	return true
}

// emitOne pops the head of cache i, appends a request, and reinserts or
// replaces the object (Algorithm 1, lines 22-29). A reinsert moves the
// popped node itself; only a retirement allocates, for the nodes of the
// replacement object.
func (g *Generator) emitOne(tr *trace.Trace, i int, tickTime float64, emitThisTick *int) bool {
	c := g.caches[i]
	n := c.PopFront()
	if n == nil {
		// Cache drained (all popularity spent): resample until non-empty.
		for attempts := 0; attempts < 10000 && c.Len() == 0; attempts++ {
			g.sampleObject()
		}
		if n = c.PopFront(); n == nil {
			return false
		}
	}
	// Sub-tick offset keeps same-tick requests ordered but distinct.
	*emitThisTick++
	e := &n.entry
	tr.Append(trace.Request{
		TimeSec:  tickTime + float64(*emitThisTick)*1e-4,
		Object:   e.Obj,
		Size:     e.Size,
		Location: i,
	})
	n.sent++
	if n.sent >= e.Pop {
		// Popularity exhausted at this location: retire and replace.
		g.sampleObject()
		return true
	}
	d := g.models.PFDs[i].drawDistance(g.rng, g.distBin(i, e))
	c.InsertAtBytes(n, d)
	return true
}

// Emitted sub-tick offsets are 1e-4 apart; ticks are 1 s, so a tick holds up
// to 10,000 ordered requests per location before offsets would collide with
// the next tick. NewGenerator refuses models whose peak rate could get
// there instead of silently misordering.
const maxPerLocationTickRate = 9000

// ValidateRates returns an error if any location's peak request rate — the
// fitted mean rate times the largest rate-profile multiplier, which is what
// Generate emits in that profile window's ticks — would overflow the
// per-tick timestamp budget.
func (m *Models) ValidateRates() error {
	for _, p := range m.PFDs {
		peak := p.ReqRate
		if p.ProfilePeriodSec > 0 && len(p.RateProfile) > 0 {
			peak *= slices.Max(p.RateProfile)
		}
		if !(peak <= maxPerLocationTickRate) {
			return fmt.Errorf("spacegen: location %q peak rate %.0f req/s exceeds %d",
				p.Location, peak, maxPerLocationTickRate)
		}
	}
	return nil
}
