package trace

import (
	"math/rand"
	"sort"
	"testing"

	"starcdn/internal/cache"
)

// sortOracle is the sort Trace.Sort replaced: the standard library's stable
// sort on TimeSec. A stable sort has exactly one correct output, so the two
// must agree request for request.
func sortOracle(rs []Request) {
	sort.SliceStable(rs, func(i, j int) bool { return rs[i].TimeSec < rs[j].TimeSec })
}

// checkSortMatchesOracle sorts a copy of rs both ways and compares them.
// Object numbers requests by input position, so a tie broken the wrong way
// shows as a mismatch.
func checkSortMatchesOracle(t *testing.T, name string, rs []Request) {
	t.Helper()
	for i := range rs {
		rs[i].Object = cache.ObjectID(i)
	}
	want := append([]Request(nil), rs...)
	sortOracle(want)
	tr := &Trace{Requests: append([]Request(nil), rs...)}
	tr.Sort()
	for i := range want {
		if tr.Requests[i] != want[i] {
			t.Fatalf("%s (n=%d): request %d is %+v, want %+v", name, len(rs), i, tr.Requests[i], want[i])
		}
	}
}

func TestSortMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	lengths := []int{0, 1, 2, sortRun - 1, sortRun, sortRun + 1,
		2*sortRun - 1, 2*sortRun + 1, 3*sortRun + 7, 1000, 100_000}
	for _, n := range lengths {
		for _, distinct := range []int{1, 3, 16, 1 << 30} {
			rs := make([]Request, n)
			for i := range rs {
				rs[i].TimeSec = float64(rng.Intn(distinct))
			}
			checkSortMatchesOracle(t, "random", rs)

			sortOracle(rs)
			checkSortMatchesOracle(t, "sorted", rs)

			for i, j := 0, len(rs)-1; i < j; i, j = i+1, j-1 {
				rs[i], rs[j] = rs[j], rs[i]
			}
			checkSortMatchesOracle(t, "reversed", rs)
		}
	}
}

// TestSortNearlySorted feeds the shape SpaceGEN emits: within each one-second
// tick, every location's requests in order at sub-tick offsets, locations
// one after another.
func TestSortNearlySorted(t *testing.T) {
	var rs []Request
	for tick := 0; tick < 200; tick++ {
		for loc := 0; loc < 7; loc++ {
			for k := 1; k <= 3+(tick*loc)%40; k++ {
				rs = append(rs, Request{TimeSec: float64(tick) + float64(k)*1e-4, Location: loc})
			}
		}
	}
	checkSortMatchesOracle(t, "nearly sorted", rs)
}

// FuzzSort checks Trace.Sort against the oracle on arbitrary inputs: every
// byte is one request's time, so ties are common.
func FuzzSort(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 2})
	f.Add([]byte("the quick brown fox jumps over the lazy dog, twice: the quick brown fox"))
	seq := make([]byte, 200)
	for i := range seq {
		seq[i] = byte(i / 3)
	}
	f.Add(seq)
	f.Fuzz(func(t *testing.T, data []byte) {
		rs := make([]Request, len(data))
		for i, b := range data {
			rs[i].TimeSec = float64(b)
		}
		checkSortMatchesOracle(t, "fuzz", rs)
	})
}

func BenchmarkTraceSort(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	shuffled := make([]Request, 600_000)
	for i := range shuffled {
		shuffled[i] = Request{TimeSec: rng.Float64() * 300, Object: cache.ObjectID(i), Size: 1}
	}
	// SpaceGEN-shaped: 1.5M requests, 1,500 ticks of ~1,000 requests from
	// 9 locations, each location's share in order inside the tick.
	var nearly []Request
	for tick := 0; len(nearly) < 1_500_000; tick++ {
		for loc := 0; loc < 9; loc++ {
			for k, n := 1, 80+rng.Intn(60); k <= n; k++ {
				nearly = append(nearly, Request{TimeSec: float64(tick) + float64(k)*1e-4, Location: loc, Size: 1})
			}
		}
	}
	nearly = nearly[:1_500_000]
	for _, c := range []struct {
		name string
		in   []Request
	}{{"shuffled-600k", shuffled}, {"nearly-sorted-1.5M", nearly}} {
		b.Run(c.name, func(b *testing.B) {
			tr := &Trace{Requests: make([]Request, len(c.in))}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				copy(tr.Requests, c.in)
				b.StartTimer()
				tr.Sort()
			}
		})
	}
}
