// Command constellation inspects the simulated Starlink shell: geometry,
// ground tracks, visibility from a point, and ISL health under outages.
//
// Usage:
//
//	constellation -summary
//	constellation -track 10,5 -minutes 95
//	constellation -visible 40.7,-74.0 -at 600
//	constellation -outage 126
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"starcdn/internal/geo"
	"starcdn/internal/orbit"
	"starcdn/internal/topo"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("constellation: ")
	var (
		summary = flag.Bool("summary", false, "print shell geometry summary")
		track   = flag.String("track", "", "print ground track of 'plane,slot'")
		minutes = flag.Float64("minutes", 95, "track duration in minutes")
		visible = flag.String("visible", "", "list satellites visible from 'lat,lon'")
		at      = flag.Float64("at", 0, "simulation time in seconds for -visible")
		outage  = flag.Int("outage", 0, "apply an outage of this many satellites and report broken ISLs")
		seed    = flag.Int64("seed", 42, "outage mask seed")
		emitTLE = flag.Bool("emit-tle", false, "print the active shell as NORAD two-line element sets")
		fromTLE = flag.String("from-tle", "", "reconstruct the shell from a TLE file (CelesTrak format)")
	)
	flag.Parse()

	c := orbit.MustNew(orbit.DefaultStarlinkShell())
	if *fromTLE != "" {
		f, err := os.Open(*fromTLE)
		if err != nil {
			log.Fatal(err)
		}
		tles, err := orbit.ParseTLESet(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			log.Fatal(err)
		}
		c, err = orbit.ReconstructShell(tles, orbit.DefaultStarlinkShell())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("# reconstructed shell from %d element sets: %d/%d slots active\n",
			len(tles), c.NumActive(), c.NumSlots())
	}
	g := topo.NewGrid(c, topo.StarlinkTable1())
	cfg := c.Config()
	if *emitTLE {
		for _, tle := range c.SyntheticTLEs(26, 1.0) {
			l1, l2 := tle.Format()
			fmt.Printf("%s\n%s\n%s\n", tle.Name, l1, l2)
		}
		return
	}

	ran := false
	if *summary {
		ran = true
		fmt.Printf("planes:        %d\n", cfg.Planes)
		fmt.Printf("slots/plane:   %d\n", cfg.SatsPerPlane)
		fmt.Printf("total slots:   %d\n", c.NumSlots())
		fmt.Printf("altitude:      %.0f km\n", cfg.AltitudeKm)
		fmt.Printf("inclination:   %.0f deg\n", cfg.InclinationDeg)
		fmt.Printf("period:        %.1f min\n", cfg.PeriodSec()/60)
		fmt.Printf("elevation mask:%.0f deg\n", cfg.MinElevDeg)
		fmt.Printf("footprint:     %.0f km radius\n", c.CoverageAngleRad()*geo.EarthRadiusKm)
	}
	if *track != "" {
		ran = true
		plane, slot := parsePair(*track)
		id := c.SatAt(plane, slot)
		fmt.Printf("# ground track of satellite plane=%d slot=%d (60 s steps)\n", plane, slot)
		fmt.Println("# t_sec\tlat_deg\tlon_deg")
		for i, step := range c.GroundTrack(id, 0, *minutes*60, 60) {
			fmt.Printf("%.1f\t%.4f\t%.4f\n", float64(i)*60, step.LatDeg, step.LonDeg)
		}
	}
	if *visible != "" {
		ran = true
		lat, lon := parseFloatPair(*visible)
		p := geo.NewPoint(lat, lon)
		var sky orbit.Sky
		c.SkyAt(&sky, *at)
		sats := sky.Visible(nil, orbit.NewSite(p))
		fmt.Printf("# %d satellites visible from %s at t=%.0fs\n", len(sats), p, *at)
		for _, id := range sats {
			pl, sl := c.PlaneSlot(id)
			sp := c.SubSatellitePoint(id, *at)
			elev := geo.ElevationDeg(geo.CentralAngleRad(p, sp), cfg.AltitudeKm)
			fmt.Printf("sat %4d (plane %2d slot %2d) elev=%5.1f deg slant=%6.0f km\n",
				id, pl, sl, elev, c.SlantRangeKm(id, p, *at))
		}
	}
	if *outage > 0 {
		ran = true
		c.ApplyOutageMask(*outage, *seed)
		fmt.Printf("active satellites: %d / %d\n", c.NumActive(), c.NumSlots())
		fmt.Printf("broken ISLs among available satellites: %d\n", g.BrokenISLCount())
	}
	if !ran {
		flag.Usage()
	}
}

func parsePair(s string) (int, int) {
	parts := strings.SplitN(s, ",", 2)
	if len(parts) != 2 {
		log.Fatalf("expected 'a,b', got %q", s)
	}
	a, err := strconv.Atoi(strings.TrimSpace(parts[0]))
	if err != nil {
		log.Fatal(err)
	}
	b, err := strconv.Atoi(strings.TrimSpace(parts[1]))
	if err != nil {
		log.Fatal(err)
	}
	return a, b
}

func parseFloatPair(s string) (float64, float64) {
	parts := strings.SplitN(s, ",", 2)
	if len(parts) != 2 {
		log.Fatalf("expected 'lat,lon', got %q", s)
	}
	a, err := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
	if err != nil {
		log.Fatal(err)
	}
	b, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
	if err != nil {
		log.Fatal(err)
	}
	return a, b
}
