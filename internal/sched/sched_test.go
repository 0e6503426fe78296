package sched

import (
	"testing"

	"starcdn/internal/geo"
	"starcdn/internal/orbit"
)

func setup(t *testing.T) (*orbit.Constellation, []geo.Point) {
	t.Helper()
	c, err := orbit.New(orbit.DefaultStarlinkShell())
	if err != nil {
		t.Fatal(err)
	}
	var pts []geo.Point
	for _, city := range geo.PaperCities() {
		pts = append(pts, city.Point)
	}
	return c, pts
}

func TestNewValidation(t *testing.T) {
	c, users := setup(t)
	if _, err := New(nil, users, 15, 1); err == nil {
		t.Error("nil constellation should fail")
	}
	if _, err := New(c, nil, 15, 1); err == nil {
		t.Error("no users should fail")
	}
	s, err := New(c, users, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.EpochSec() != DefaultEpochSec {
		t.Errorf("default epoch = %v", s.EpochSec())
	}
	if s.NumUsers() != len(users) {
		t.Errorf("users = %d", s.NumUsers())
	}
}

func TestFirstContactStableWithinEpoch(t *testing.T) {
	c, users := setup(t)
	s, err := New(c, users, 15, 7)
	if err != nil {
		t.Fatal(err)
	}
	for u := range users {
		a, okA := s.FirstContact(u, 100)
		b, okB := s.FirstContact(u, 114.9) // same epoch [90, 105)? no: epoch 6=90-105, 114.9 is epoch 7
		_ = b
		_ = okB
		c2, okC := s.FirstContact(u, 104.9) // same epoch as t=100 ([90,105))
		if okA != okC || a != c2 {
			t.Errorf("user %d: assignment changed within epoch: %d vs %d", u, a, c2)
		}
		if okA {
			// Assigned satellite must actually be visible.
			var sky orbit.Sky
			c.SkyAt(&sky, 90)
			found := false
			for _, v := range sky.Visible(nil, orbit.NewSite(users[u])) {
				if v == a {
					found = true
				}
			}
			if !found {
				t.Errorf("user %d assigned non-visible satellite %d", u, a)
			}
		}
	}
}

func TestAssignmentsChangeOverTime(t *testing.T) {
	c, users := setup(t)
	s, err := New(c, users, 15, 7)
	if err != nil {
		t.Fatal(err)
	}
	changes := 0
	checks := 0
	for u := range users {
		prev, ok := s.FirstContact(u, 0)
		if !ok {
			continue
		}
		// Over 40 epochs (10 minutes) the orbital motion forces handovers.
		for e := int64(1); e < 40; e++ {
			cur, ok := s.FirstContact(u, float64(e)*15)
			if !ok {
				continue
			}
			checks++
			if cur != prev {
				changes++
			}
			prev = cur
		}
	}
	if checks == 0 {
		t.Fatal("no assignments at all")
	}
	if changes == 0 {
		t.Error("assignments never changed across 10 minutes of orbital motion")
	}
}

func TestDeterminism(t *testing.T) {
	c1, users := setup(t)
	s1, _ := New(c1, users, 15, 42)
	c2, _ := setup(t)
	s2, _ := New(c2, users, 15, 42)
	for _, tm := range []float64{0, 15, 300, 4000} {
		for u := range users {
			a, okA := s1.FirstContact(u, tm)
			b, okB := s2.FirstContact(u, tm)
			if okA != okB || a != b {
				t.Fatalf("user %d t=%v: %d/%v vs %d/%v", u, tm, a, okA, b, okB)
			}
		}
	}
}

func TestOutOfRangeUser(t *testing.T) {
	c, users := setup(t)
	s, _ := New(c, users, 15, 1)
	if _, ok := s.FirstContact(-1, 0); ok {
		t.Error("negative user index should fail")
	}
	if _, ok := s.FirstContact(len(users), 0); ok {
		t.Error("user index past end should fail")
	}
	if s.VisibleCount(-1, 0) != 0 {
		t.Error("out-of-range VisibleCount should be 0")
	}
}

func TestVisibleCount(t *testing.T) {
	c, users := setup(t)
	s, _ := New(c, users, 15, 1)
	total := 0
	for u := range users {
		total += s.VisibleCount(u, 0)
	}
	if total == 0 {
		t.Error("expected some visibility across nine cities")
	}
}

func TestNoVisibleSatellites(t *testing.T) {
	c, _ := setup(t)
	// A user at the pole is outside a 53-degree shell's coverage.
	s, err := New(c, []geo.Point{geo.NewPoint(89.9, 0)}, 15, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.FirstContact(0, 0); ok {
		t.Error("polar user should see no satellites in a 53-degree shell")
	}
}

func TestUniformSpreadAcrossVisible(t *testing.T) {
	// Over many epochs a user's picks should spread across multiple
	// satellites, not collapse onto one (the scheduler re-randomises).
	c, users := setup(t)
	s, _ := New(c, users, 15, 9)
	seen := map[orbit.SatID]bool{}
	for e := 0; e < 30; e++ {
		if id, ok := s.FirstContact(4, float64(e)*15); ok { // New York
			seen[id] = true
		}
	}
	if len(seen) < 3 {
		t.Errorf("NY user stuck on %d satellites over 30 epochs", len(seen))
	}
}

// TestAdvanceReportsRecomputes: Advance recomputes exactly once per epoch
// crossing, and FirstContact after an explicit Advance returns the same
// assignment it would have computed on its own.
func TestAdvanceReportsRecomputes(t *testing.T) {
	c, users := setup(t)
	explicit, _ := New(c, users, 15, 3)
	implicit, _ := New(c, users, 15, 3)
	for _, tc := range []struct {
		t    float64
		want bool
	}{{0, true}, {7, false}, {14.9, false}, {15, true}, {300, true}, {301, false}} {
		if got := explicit.Advance(tc.t); got != tc.want {
			t.Errorf("Advance(%v) = %v, want %v", tc.t, got, tc.want)
		}
		for u := range users {
			a, okA := explicit.FirstContact(u, tc.t)
			b, okB := implicit.FirstContact(u, tc.t)
			if a != b || okA != okB {
				t.Fatalf("t=%v user %d: advanced %d/%v, implicit %d/%v", tc.t, u, a, okA, b, okB)
			}
		}
	}
}

// TestOutageReadAtRecompute: the active mask is read when an epoch is
// recomputed, so a satellite failed between epochs is never assigned in the
// next one, while the current epoch's assignments stay stable.
func TestOutageReadAtRecompute(t *testing.T) {
	c, users := setup(t)
	s, _ := New(c, users, 15, 11)
	first, ok := s.FirstContact(4, 0) // New York
	if !ok {
		t.Fatal("New York sees no satellite at t=0")
	}
	c.SetActive(first, false)
	if again, _ := s.FirstContact(4, 10); again != first {
		t.Errorf("assignment changed within the epoch: %d -> %d", first, again)
	}
	for e := 1; e < 20; e++ {
		if id, ok := s.FirstContact(4, float64(e)*15); ok && id == first {
			t.Fatalf("epoch %d assigned failed satellite %d", e, id)
		}
	}
}
