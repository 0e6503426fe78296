package main

import (
	"io"
	"testing"

	"starcdn/internal/sim"
)

// TestWorkloadsHeldOutSeed runs every workload at reduced size, traced, on
// the default seed and on a held-out one. The correctness gate must pass:
// every measured call and the traced call reproduce the reference digest,
// and the replay reproduces sim.Run's meter.
func TestWorkloadsHeldOutSeed(t *testing.T) {
	for _, s := range workloads {
		for _, seed := range []int64{42, 7} {
			small := s.scaled(0.05)
			rep, err := measure(small, seed, 0, true, io.Discard)
			if err != nil {
				t.Fatalf("%s seed %d: %v", s.name, seed, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Fatalf("%s seed %d: report %+v", s.name, seed, rep)
			}
			if len(rep.Metrics) != len(perLayer) {
				t.Errorf("%s seed %d: %d metrics, want %d", s.name, seed, len(rep.Metrics), len(perLayer))
			}
			if got := rep.Metrics["sched.epochs"].Value; got < 1 {
				t.Errorf("%s seed %d: %v epochs", s.name, seed, got)
			}
			replayed := rep.Metrics["replayer.replay_s"].Value > 0
			if replayed != s.replay {
				t.Errorf("%s seed %d: replayer.replay_s = %v", s.name, seed, rep.Metrics["replayer.replay_s"].Value)
			}
		}
	}
}

// TestCheckSimRejects shows the gate is not vacuous: each doctored field of
// a real run's metrics fails it.
func TestCheckSimRejects(t *testing.T) {
	s, _ := findSpec("sim-video-sparse")
	f, err := setup(s.scaled(0.02), 42, nil, -1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := f.simRun(f.policy())
	if err != nil {
		t.Fatal(err)
	}
	n := f.requests()
	if err := checkSim(m, n); err != nil {
		t.Fatalf("a real run fails the gate: %v", err)
	}
	for name, doctor := range map[string]func(*sim.Metrics){
		"requests": func(m *sim.Metrics) { m.Meter.Requests++ },
		"hits":     func(m *sim.Metrics) { m.Meter.Hits-- },
		"sources":  func(m *sim.Metrics) { m.BySource[sim.SourceGround]++ },
		"uplink":   func(m *sim.Metrics) { m.UplinkBytes++ },
	} {
		m, err := f.simRun(f.policy())
		if err != nil {
			t.Fatal(err)
		}
		doctor(m)
		if err := checkSim(m, n); err == nil {
			t.Errorf("doctored %s passed the gate", name)
		}
	}
}
