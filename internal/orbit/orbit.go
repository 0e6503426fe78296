// Package orbit models the LEO constellation that carries StarCDN's edge
// caches. It replaces the paper's use of the Microsoft CosmicBeats simulator
// with a circular-orbit Walker-delta propagator: the paper's experiments
// consume only per-epoch sub-satellite points, fields of view, and the ISL
// grid, all of which a circular Keplerian model reproduces exactly at 15 s
// granularity (the Starlink shell's eccentricity is ~0).
//
// The default shell mirrors the paper's simulation setup (§5.1): 72 orbital
// planes inclined at 53°, 18 slots per plane (1,296 slots), 550 km altitude,
// with 126 out-of-slot satellites leaving 1,170 active — the constellation
// state the paper measured from CelesTrak and starlink.sx.
//
// Visibility is answered from a per-epoch orbit table. Satellite positions do
// not depend on the observer, so SkyAt propagates every slot once into an
// Earth-centred unit vector, and Sky.Visible tests each active slot with one
// dot product against cos(coverage angle) — no trigonometry per (user,
// satellite) pair. Inside a ±1e-9 guard band around the threshold the query
// falls back to the exact haversine comparison the table replaced. Both
// computations carry rounding error many orders of magnitude below the band,
// so outside it they cannot disagree and inside it the haversine decides:
// the visibility sets are identical to the haversine path by construction.
// The test suite keeps that haversine query as a differential oracle.
package orbit

import (
	"fmt"
	"math"
	"math/rand"

	"starcdn/internal/geo"
)

// Physical constants.
const (
	// MuEarth is the standard gravitational parameter of Earth, km^3/s^2.
	MuEarth = 398600.4418
	// EarthRotationRadPerSec is the sidereal rotation rate of Earth.
	EarthRotationRadPerSec = 2 * math.Pi / 86164.0905
)

// SatID identifies a satellite slot: plane*SatsPerPlane + slot.
type SatID int

// Config describes a single Walker-delta shell.
type Config struct {
	Planes         int     // number of orbital planes
	SatsPerPlane   int     // slots per plane
	InclinationDeg float64 // orbital inclination
	AltitudeKm     float64 // altitude above the spherical Earth
	PhasingF       int     // Walker delta phasing factor in [0, Planes)
	MinElevDeg     float64 // user terminal minimum elevation mask
}

// DefaultStarlinkShell returns the paper's evaluation shell: the
// Starlink-53 Gen-1 configuration with 72 planes × 18 slots at 550 km / 53°.
//
// The Walker phasing factor is chosen so the shell reproduces the ground
// track geometry the paper's Fig. 3 shows for Starlink: the same-slot
// satellite one plane to the west is over the position this satellite held
// ΔT = raanStep/ωE ≈ 20 minutes earlier (track coincidence requires the
// in-plane phase offset to absorb the mean motion over ΔT, which pins
// F ≈ 1296·(1 − frac(ΔT/T)) = 1025). This westward retrace is exactly what
// relayed fetch (§3.3) exploits.
func DefaultStarlinkShell() Config {
	return Config{
		Planes:         72,
		SatsPerPlane:   18,
		InclinationDeg: 53,
		AltitudeKm:     550,
		PhasingF:       1025,
		MinElevDeg:     25,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.Planes <= 0:
		return fmt.Errorf("orbit: Planes must be positive, got %d", c.Planes)
	case c.SatsPerPlane <= 0:
		return fmt.Errorf("orbit: SatsPerPlane must be positive, got %d", c.SatsPerPlane)
	case c.AltitudeKm <= 0:
		return fmt.Errorf("orbit: AltitudeKm must be positive, got %v", c.AltitudeKm)
	case c.InclinationDeg <= 0 || c.InclinationDeg > 180:
		return fmt.Errorf("orbit: InclinationDeg out of range: %v", c.InclinationDeg)
	case c.MinElevDeg < 0 || c.MinElevDeg >= 90:
		return fmt.Errorf("orbit: MinElevDeg out of range: %v", c.MinElevDeg)
	case c.PhasingF < 0 || c.PhasingF >= c.Planes*c.SatsPerPlane:
		return fmt.Errorf("orbit: PhasingF out of range: %d", c.PhasingF)
	}
	return nil
}

// PeriodSec returns the orbital period in seconds for the shell altitude.
func (c Config) PeriodSec() float64 {
	a := geo.EarthRadiusKm + c.AltitudeKm
	return 2 * math.Pi * math.Sqrt(a*a*a/MuEarth)
}

// Constellation is an instantiated shell with an activity mask.
type Constellation struct {
	cfg          Config
	active       []bool
	numActive    int
	meanMotion   float64 // rad/s
	inclination  float64 // rad
	coverageRad  float64 // footprint angular radius, rad
	raanStep     float64 // rad between adjacent planes
	slotStep     float64 // rad between adjacent slots in a plane
	phaseStep    float64 // rad of in-plane phase offset per plane (Walker F)
	planeOfCache []int16 // precomputed plane per SatID
	slotOfCache  []int16 // precomputed slot per SatID
}

// New constructs a Constellation from cfg with all slots active.
func New(cfg Config) (*Constellation, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Planes * cfg.SatsPerPlane
	c := &Constellation{
		cfg:         cfg,
		active:      make([]bool, n),
		numActive:   n,
		meanMotion:  2 * math.Pi / cfg.PeriodSec(),
		inclination: geo.Radians(cfg.InclinationDeg),
		coverageRad: geo.CoverageAngleRad(cfg.AltitudeKm, cfg.MinElevDeg),
		raanStep:    2 * math.Pi / float64(cfg.Planes),
		slotStep:    2 * math.Pi / float64(cfg.SatsPerPlane),
		phaseStep:   2 * math.Pi * float64(cfg.PhasingF) / float64(n),
	}
	for i := range c.active {
		c.active[i] = true
	}
	c.planeOfCache = make([]int16, n)
	c.slotOfCache = make([]int16, n)
	for i := 0; i < n; i++ {
		c.planeOfCache[i] = int16(i / cfg.SatsPerPlane)
		c.slotOfCache[i] = int16(i % cfg.SatsPerPlane)
	}
	return c, nil
}

// MustNew is New but panics on error; for use with known-good configs.
func MustNew(cfg Config) *Constellation {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the shell configuration.
func (c *Constellation) Config() Config { return c.cfg }

// NumSlots returns the total number of satellite slots.
func (c *Constellation) NumSlots() int { return len(c.active) }

// NumActive returns the number of active satellites.
func (c *Constellation) NumActive() int { return c.numActive }

// Active reports whether the slot is occupied by a working satellite.
func (c *Constellation) Active(id SatID) bool {
	return int(id) >= 0 && int(id) < len(c.active) && c.active[id]
}

// SetActive marks a slot active or inactive.
func (c *Constellation) SetActive(id SatID, up bool) {
	if int(id) < 0 || int(id) >= len(c.active) {
		return
	}
	if c.active[id] != up {
		c.active[id] = up
		if up {
			c.numActive++
		} else {
			c.numActive--
		}
	}
}

// ApplyOutageMask deactivates n distinct pseudo-randomly chosen slots using
// the given seed, modelling out-of-slot satellites (§5.4 observed 126/1296).
// It reactivates everything first so calls are idempotent per (n, seed).
func (c *Constellation) ApplyOutageMask(n int, seed int64) {
	for i := range c.active {
		c.SetActive(SatID(i), true)
	}
	if n <= 0 {
		return
	}
	if n > len(c.active) {
		n = len(c.active)
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(c.active))
	for _, idx := range perm[:n] {
		c.SetActive(SatID(idx), false)
	}
}

// SatAt returns the SatID for a plane/slot pair (both taken modulo their
// ranges, so negative indices wrap).
func (c *Constellation) SatAt(plane, slot int) SatID {
	p := mod(plane, c.cfg.Planes)
	s := mod(slot, c.cfg.SatsPerPlane)
	return SatID(p*c.cfg.SatsPerPlane + s)
}

// PlaneSlot returns the plane and slot of a SatID.
func (c *Constellation) PlaneSlot(id SatID) (plane, slot int) {
	return int(c.planeOfCache[id]), int(c.slotOfCache[id])
}

// SubSatellitePoint returns the geodetic point directly beneath the satellite
// at simulation time tSec seconds after epoch.
func (c *Constellation) SubSatellitePoint(id SatID, tSec float64) geo.Point {
	plane, slot := c.PlaneSlot(id)
	// Argument of latitude: in-plane phase at epoch plus mean motion.
	u := float64(slot)*c.slotStep + float64(plane)*c.phaseStep + c.meanMotion*tSec
	raan := float64(plane) * c.raanStep
	sinU, cosU := math.Sincos(u)
	sinLat := math.Sin(c.inclination) * sinU
	lat := math.Asin(sinLat)
	dLon := math.Atan2(math.Cos(c.inclination)*sinU, cosU)
	lon := raan + dLon - EarthRotationRadPerSec*tSec
	return geo.NewPoint(geo.Degrees(lat), geo.Degrees(lon))
}

// CoverageAngleRad returns the angular radius of each satellite's footprint.
func (c *Constellation) CoverageAngleRad() float64 { return c.coverageRad }

// skyGuard is the half-width of the band around cos(coverage) inside which
// Sky.Visible defers to the exact haversine comparison. The dot product and
// the haversine both carry rounding error of order 1e-13 (the argument of
// latitude is formed by the same expression on both paths, and every later
// step is a handful of well-conditioned float64 operations; the error grows
// only with |u|, and stays below 1e-11 after a simulated year), so outside
// the band the two tests cannot disagree.
const skyGuard = 1e-9

// Site is a ground point prepared for sky queries: the point itself (for the
// exact fallback) and its Earth-centred unit vector (for the dot product).
type Site struct {
	Point   geo.Point
	x, y, z float64
}

// NewSite prepares ground point p for Sky.Visible.
func NewSite(p geo.Point) Site {
	sinLat, cosLat := math.Sincos(geo.Radians(p.LatDeg))
	sinLon, cosLon := math.Sincos(geo.Radians(p.LonDeg))
	return Site{Point: p, x: cosLat * cosLon, y: cosLat * sinLon, z: sinLat}
}

// Sky is one epoch's orbit table: the Earth-centred unit vector of every
// slot's sub-satellite point at a single instant. Satellite positions do not
// depend on the observer, so one table answers the visibility query for
// every ground site in an epoch. A Sky holds no activity state: Visible reads
// the constellation's active mask at query time. The zero value is empty;
// fill it with Constellation.SkyAt, reusing the same Sky across epochs.
type Sky struct {
	c      *Constellation
	tSec   float64
	cosCov float64
	dir    [][3]float64 // per SatID
}

// SkyAt propagates every slot once to time tSec and stores the result in
// dst, reusing dst's storage.
func (c *Constellation) SkyAt(dst *Sky, tSec float64) {
	dst.c, dst.tSec, dst.cosCov = c, tSec, math.Cos(c.coverageRad)
	dst.dir = dst.dir[:0]
	sinI, cosI := math.Sincos(c.inclination)
	for plane := 0; plane < c.cfg.Planes; plane++ {
		// The node of the plane in the Earth-fixed frame; the sub-satellite
		// direction is the in-plane vector (cos u, cos i·sin u, sin i·sin u)
		// rotated about the pole by this angle — the same point
		// SubSatellitePoint reaches through asin/atan2.
		sinT, cosT := math.Sincos(float64(plane)*c.raanStep - EarthRotationRadPerSec*tSec)
		for slot := 0; slot < c.cfg.SatsPerPlane; slot++ {
			u := float64(slot)*c.slotStep + float64(plane)*c.phaseStep + c.meanMotion*tSec
			sinU, cosU := math.Sincos(u)
			ey := cosI * sinU
			dst.dir = append(dst.dir, [3]float64{cosT*cosU - sinT*ey, sinT*cosU + cosT*ey, sinI * sinU})
		}
	}
}

// Visible appends to dst the active satellites visible from site (elevation
// above the configured mask), in SatID order, and returns the extended slice.
//
// The test is dot(site, sat) > cos(coverage). Inside a ±skyGuard band
// around the threshold it falls back to the exact haversine comparison
// geo.CentralAngleRad(site, sub-satellite point) <= coverage, so the result
// is the same set the haversine alone produces, not an approximation of it.
func (s *Sky) Visible(dst []SatID, site Site) []SatID {
	if s.c == nil {
		return dst
	}
	active := s.c.active[:len(s.dir)]
	lo, hi := s.cosCov-skyGuard, s.cosCov+skyGuard
	for i := range s.dir {
		d := &s.dir[i]
		dot := site.x*d[0] + site.y*d[1] + site.z*d[2]
		if dot < lo || !active[i] {
			continue
		}
		if dot <= hi && geo.CentralAngleRad(site.Point, s.c.SubSatellitePoint(SatID(i), s.tSec)) > s.c.coverageRad {
			continue
		}
		dst = append(dst, SatID(i))
	}
	return dst
}

// SlantRangeKm returns the line-of-sight distance from ground point p to the
// satellite at time tSec.
func (c *Constellation) SlantRangeKm(id SatID, p geo.Point, tSec float64) float64 {
	sp := c.SubSatellitePoint(id, tSec)
	return geo.SlantRangeKm(geo.CentralAngleRad(p, sp), c.cfg.AltitudeKm)
}

// GroundTrack samples the sub-satellite point from startSec to endSec every
// stepSec and returns the resulting track.
func (c *Constellation) GroundTrack(id SatID, startSec, endSec, stepSec float64) []geo.Point {
	if stepSec <= 0 || endSec < startSec {
		return nil
	}
	var pts []geo.Point
	for t := startSec; t <= endSec; t += stepSec {
		pts = append(pts, c.SubSatellitePoint(id, t))
	}
	return pts
}

func mod(a, n int) int {
	m := a % n
	if m < 0 {
		m += n
	}
	return m
}
