package spacegen

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"starcdn/internal/geo"
	"starcdn/internal/trace"
	"starcdn/internal/workload"
)

// traceDigest hashes the location table and every request. fmt prints a
// float64 in the shortest form that parses back to the same bits, so a
// timestamp that moves by one ulp changes the digest.
func traceDigest(tr *trace.Trace) string {
	h := sha256.New()
	fmt.Fprint(h, tr.Locations, tr.Requests)
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenDigests pins Algorithm 1's output at fixed seeds: a video model
// fitted on a one-hour trace, and a dense web model shaped like the
// benchmark's (a short span over many objects, ~190 requests per
// location per one-second tick).
func TestGoldenDigests(t *testing.T) {
	web := workload.Web()
	web.NumObjects = 20_000
	web.MaxSizeBytes = 64 << 20
	wg, err := workload.NewGenerator(web, geo.PaperCities(), 42)
	if err != nil {
		t.Fatal(err)
	}
	webProd, err := wg.Generate(100_000, 60)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name     string
		prod     *trace.Trace
		seed     int64
		requests int
		want     string
	}{
		{"video", productionTrace(t, 40_000), 99, 100_000, "49919305aa31ec35f747fe78b889abbc83cc49e7ecb4f2baccf92d9aa1c9c00e"},
		{"web", webProd, 42, 250_000, "4a1fabb374f90009a9a20904e10367d8ff2bc1fb15f769c93e64c27c403be6db"},
	}
	for _, c := range cases {
		m, err := Fit(c.prod)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		g, err := NewGenerator(m, c.seed)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		tr, err := g.Generate(c.requests)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := traceDigest(tr); got != c.want {
			t.Errorf("%s: digest %s, want %s", c.name, got, c.want)
		}
	}
}
