package orbit

import (
	"testing"

	"starcdn/internal/geo"
)

func BenchmarkSubSatellitePoint(b *testing.B) {
	c := MustNew(DefaultStarlinkShell())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = c.SubSatellitePoint(SatID(i%c.NumSlots()), float64(i))
	}
}

// BenchmarkSkyAt is one epoch's orbit table: every slot propagated once.
func BenchmarkSkyAt(b *testing.B) {
	c := MustNew(DefaultStarlinkShell())
	var sky Sky
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.SkyAt(&sky, float64(i%5700))
	}
}

// BenchmarkSkyVisible is one site's visibility query against a built table.
func BenchmarkSkyVisible(b *testing.B) {
	c := MustNew(DefaultStarlinkShell())
	var sky Sky
	c.SkyAt(&sky, 1000)
	site := NewSite(geo.NewPoint(40.713, -74.006))
	buf := make([]SatID, 0, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = sky.Visible(buf[:0], site)
	}
}
