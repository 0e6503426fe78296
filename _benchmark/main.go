// Command benchmark measures StarCDN end to end on three workloads: an
// epoch-bound sim.Run over the Small-scale video trace, a request-bound
// sim.Run over a SpaceGEN web trace, and a sequential TCP replay. Build and
// run it from the repository root with
//
//	bash _benchmark/run.sh --workload <name|all> --seed 42 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics, measured untraced; with
// --trace 1 it prints the per-layer metrics of a traced run. Each metric is
// printed as a "name value unit" line, and the last line of standard output
// is a JSON report. The exit code is non-zero when any call fails or a
// result fails the correctness gate. README.md records why each workload and
// metric was chosen.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

func main() {
	name := flag.String("workload", "all", "workload to run ("+workloadNames()+"), or all")
	seed := flag.Int64("seed", 42, "seed of every generator and of the sim and replay schedulers")
	seconds := flag.Float64("seconds", 20, "how long the measured calls run, in seconds")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run")
	flag.Parse()
	if flag.NArg() > 0 || *trace < 0 || *trace > 1 || *seconds < 0 {
		flag.Usage()
		os.Exit(2)
	}
	if *name == "all" {
		os.Exit(runAll(*seed, *seconds, *trace))
	}
	s, ok := findSpec(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (want one of %s, or all)\n", *name, workloadNames())
		os.Exit(2)
	}
	rep, err := measure(s, *seed, *seconds, *trace == 1, os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", s.name, err)
	}
	if werr := rep.write(os.Stdout); werr != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", werr)
		os.Exit(1)
	}
	if err != nil {
		os.Exit(1)
	}
}

// runAll runs every workload in a child process of its own, so that each
// reports its own peak RSS, and prints their metrics as one report, each
// named "<workload>.<metric>". It returns the exit code.
func runAll(seed int64, seconds float64, trace int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	all := &report{Correct: true, Metrics: map[string]value{}}
	code := 0
	for _, s := range workloads {
		var out bytes.Buffer
		cmd := exec.Command(self, "--workload", s.name,
			"--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
			"--trace", strconv.Itoa(trace))
		cmd.Stdout, cmd.Stderr = &out, os.Stderr
		runErr := cmd.Run()
		rep, err := parseOutput(&out)
		if err == nil {
			err = runErr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", s.name, err)
			code = 1
		}
		if rep == nil {
			rep = &report{Attempted: 1, Failed: 1}
		}
		all.Correct = all.Correct && err == nil && rep.Correct
		all.Attempted += rep.Attempted
		all.Failed += rep.Failed
		for n, v := range rep.Metrics {
			all.Metrics[s.name+"."+n] = v
		}
	}
	if err := all.write(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	return code
}
