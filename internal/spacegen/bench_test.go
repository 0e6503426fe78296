package spacegen

import (
	"math/rand"
	"testing"

	"starcdn/internal/cache"
	"starcdn/internal/trace"
)

func BenchmarkByteListInsert(b *testing.B) {
	l := newByteList(1)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		l.PushBack(Entry{Obj: cache.ObjectID(i), Size: int64(1 + rng.Intn(1<<20))})
	}
	total := l.TotalBytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.InsertAtBytes(l.PopFront(), rng.Int63n(total))
	}
}

func benchTrace(n int) *trace.Trace {
	rng := rand.New(rand.NewSource(2))
	zipf := rand.NewZipf(rng, 1.05, 1, 5000)
	tr := &trace.Trace{Locations: []string{"a", "b", "c"}}
	for i := 0; i < n; i++ {
		tr.Append(trace.Request{
			TimeSec:  float64(i) * 0.01,
			Object:   cache.ObjectID(zipf.Uint64() + 1),
			Size:     int64(1+rng.Intn(1<<16)) << 4,
			Location: rng.Intn(3),
		})
	}
	return tr
}

func BenchmarkFit(b *testing.B) {
	tr := benchTrace(50000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fit(tr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGenerate(b *testing.B) {
	tr := benchTrace(50000)
	m, err := Fit(tr)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := NewGenerator(m, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := g.Generate(50000); err != nil {
			b.Fatal(err)
		}
	}
}
