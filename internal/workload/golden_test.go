package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"starcdn/internal/geo"
	"starcdn/internal/trace"
)

// traceDigest hashes the location table and every request. fmt prints a
// float64 in the shortest form that parses back to the same bits, so a
// timestamp that moves by one ulp changes the digest.
func traceDigest(tr *trace.Trace) string {
	h := sha256.New()
	fmt.Fprint(h, tr.Locations, tr.Requests)
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenDigests pins generated traces at fixed seeds: the generators
// and the trace sort may get faster, but their output must not move.
func TestGoldenDigests(t *testing.T) {
	web := Web()
	web.NumObjects = 20_000
	cases := []struct {
		name string
		gen  func() (*trace.Trace, error)
		want string
	}{
		{"video", func() (*trace.Trace, error) {
			g, err := NewGenerator(smallVideo(), geo.PaperCities(), 7)
			if err != nil {
				return nil, err
			}
			return g.Generate(50_000, 3600)
		}, "c80dadb4df836ecca28b1b52f2097afa3280af5264e035a7bc9908666421ce78"},
		{"web", func() (*trace.Trace, error) {
			g, err := NewGenerator(web, geo.PaperCities(), 42)
			if err != nil {
				return nil, err
			}
			return g.Generate(200_000, 300)
		}, "88ad51a3a37cc342cb5d8d08d9eed3fb0662b5804a36401d9b213f4b26b6d390"},
		{"mixed", func() (*trace.Trace, error) {
			return GenerateMixed(smallMix(), geo.PaperCities(), 3, 60_000, 3600)
		}, "0613b7eff558cef70d0d8668dceb06b363f0fc44733cb251d471d68daf13d85a"},
	}
	for _, c := range cases {
		tr, err := c.gen()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := traceDigest(tr); got != c.want {
			t.Errorf("%s: digest %s, want %s", c.name, got, c.want)
		}
	}
}
