package orbit

import (
	"math"
	"testing"

	"starcdn/internal/geo"
)

// VisibleFrom is the per-observer haversine query the epoch table replaced:
// it propagates every slot with the scalar SubSatellitePoint and runs a
// haversine per (site, satellite) pair. It is kept, test-only, as the
// differential oracle for Sky.Visible.
func (c *Constellation) VisibleFrom(dst []SatID, p geo.Point, tSec float64) []SatID {
	return c.oracleVisible(dst, c.subPoints(nil, tSec), p)
}

// subPoints propagates every slot to tSec with the scalar propagator, so one
// epoch's propagation can be shared by many oracle queries.
func (c *Constellation) subPoints(dst []geo.Point, tSec float64) []geo.Point {
	dst = dst[:0]
	for i := range c.active {
		dst = append(dst, c.SubSatellitePoint(SatID(i), tSec))
	}
	return dst
}

// oracleVisible is the haversine test over one epoch's sub-satellite points.
// A satellite whose latitude differs from p's by more than the coverage
// angle (plus 1e-4° of slack) is skipped without the haversine: the central
// angle is never smaller than the latitude difference.
func (c *Constellation) oracleVisible(dst []SatID, pts []geo.Point, p geo.Point) []SatID {
	latBand := geo.Degrees(c.coverageRad) + 1e-4
	for i, sp := range pts {
		if !c.active[i] || math.Abs(sp.LatDeg-p.LatDeg) > latBand {
			continue
		}
		if geo.CentralAngleRad(p, sp) <= c.coverageRad {
			dst = append(dst, SatID(i))
		}
	}
	return dst
}

func equalIDs(a, b []SatID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// oracleSites is every geo city plus a lat/lon grid reaching past the
// shell's coverage edge (53° inclination + ~8° footprint), so sites that see
// many, few and no satellites are all represented.
func oracleSites() []geo.Point {
	var pts []geo.Point
	for _, city := range geo.ExtendedCities() {
		pts = append(pts, city.Point)
	}
	for lat := -70.0; lat <= 70; lat += 20 {
		for lon := -180.0; lon < 180; lon += 45 {
			pts = append(pts, geo.NewPoint(lat+0.37, lon+0.61))
		}
	}
	return pts
}

// TestSkyMatchesHaversineOracle: over 2000 epochs and every oracle site the
// epoch table returns exactly the oracle's ordered visibility set — with the
// full shell, under the §5.4 outage mask, and with slots toggled between
// epochs (the table is built once per epoch and must read the mask at query
// time). The three constellations advance in lock-step and share one
// haversine evaluation per (epoch, site): the oracle's answer under a mask is
// its full-shell answer filtered by that mask.
func TestSkyMatchesHaversineOracle(t *testing.T) {
	const epochs = 2000
	const epochSec = 15.0
	sites := oracleSites()
	prepared := make([]Site, len(sites))
	for i, p := range sites {
		prepared[i] = NewSite(p)
	}
	full := MustNew(testShell())
	outage := MustNew(testShell())
	outage.ApplyOutageMask(126, 42)
	toggled := MustNew(testShell())
	scenarios := []struct {
		name string
		c    *Constellation
		sky  Sky
	}{{name: "all-active", c: full}, {name: "outage-mask", c: outage}, {name: "toggles", c: toggled}}
	var pts []geo.Point
	var got, all, want []SatID
	nonEmpty := 0
	for e := 0; e < epochs; e++ {
		// A deterministic churn of a few slots per epoch, some of them
		// revived later.
		for k := 0; k < 5; k++ {
			toggled.SetActive(SatID((e*97+k*389)%toggled.NumSlots()), (e+k)%3 == 0)
		}
		tSec := float64(e) * epochSec
		pts = full.subPoints(pts, tSec)
		for i := range scenarios {
			scenarios[i].c.SkyAt(&scenarios[i].sky, tSec)
		}
		for i, p := range sites {
			all = full.oracleVisible(all[:0], pts, p)
			if len(all) > 0 {
				nonEmpty++
			}
			for j := range scenarios {
				sc := &scenarios[j]
				want = want[:0]
				for _, id := range all {
					if sc.c.Active(id) {
						want = append(want, id)
					}
				}
				got = sc.sky.Visible(got[:0], prepared[i])
				if !equalIDs(got, want) {
					t.Fatalf("%s: epoch %d site %v: table %v, oracle %v", sc.name, e, p, got, want)
				}
			}
		}
	}
	if nonEmpty == 0 {
		t.Fatal("oracle never saw a satellite: the comparison is vacuous")
	}
	if outage.NumActive() != outage.NumSlots()-126 || toggled.NumActive() == toggled.NumSlots() {
		t.Fatalf("masks not exercised: outage %d active, toggles %d active",
			outage.NumActive(), toggled.NumActive())
	}
}

// TestSkyGuardBandUsesExactTest places sites on the footprint edge of
// chosen satellites, where the dot product sits inside the guard band and
// the exact haversine decides, and checks the decision matches the oracle.
func TestSkyGuardBandUsesExactTest(t *testing.T) {
	c := MustNew(testShell())
	const tSec = 1234.5
	var sky Sky
	c.SkyAt(&sky, tSec)
	edgeKm := c.CoverageAngleRad() * geo.EarthRadiusKm
	inBand := 0
	for id := SatID(0); int(id) < c.NumSlots(); id += 37 {
		sp := c.SubSatellitePoint(id, tSec)
		for _, bearing := range []float64{0, 90, 180, 270} {
			p := geo.Destination(sp, bearing, edgeKm)
			site := NewSite(p)
			d := sky.dir[id]
			dot := site.x*d[0] + site.y*d[1] + site.z*d[2]
			if math.Abs(dot-sky.cosCov) > skyGuard {
				continue
			}
			inBand++
			got := sky.Visible(nil, site)
			want := c.VisibleFrom(nil, p, tSec)
			if !equalIDs(got, want) {
				t.Fatalf("sat %d bearing %v: table %v, oracle %v", id, bearing, got, want)
			}
		}
	}
	if inBand == 0 {
		t.Fatal("no constructed site landed inside the guard band")
	}
}

// TestSkyAtMatchesSubSatellitePoint: each table row is the unit vector of
// the sub-satellite point the scalar propagator returns.
func TestSkyAtMatchesSubSatellitePoint(t *testing.T) {
	c := MustNew(testShell())
	var sky Sky
	for _, tSec := range []float64{0, 15, 5000, 86400} {
		c.SkyAt(&sky, tSec)
		for id := SatID(0); int(id) < c.NumSlots(); id++ {
			want := NewSite(c.SubSatellitePoint(id, tSec))
			d := sky.dir[id]
			if dx, dy, dz := d[0]-want.x, d[1]-want.y, d[2]-want.z; dx*dx+dy*dy+dz*dz > 1e-24 {
				t.Fatalf("t=%v sat %d: table %v, point %v", tSec, id, d, want)
			}
		}
	}
}

func TestEmptySkySeesNothing(t *testing.T) {
	var sky Sky
	if got := sky.Visible(nil, NewSite(geo.NewPoint(40, -74))); len(got) != 0 {
		t.Errorf("zero Sky reported %v", got)
	}
}
