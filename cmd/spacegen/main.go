// Command spacegen fits footprint-descriptor models from a production trace
// and generates geo-correlated synthetic traces (the SpaceGEN tool, §4).
//
// Usage:
//
//	spacegen -synthesize-production -class video -requests 200000 -out prod.sctr
//	spacegen -in prod.sctr -save-models models.json
//	spacegen -models models.json -generate 1000000 -out synthetic.sctr
//	spacegen -in prod.sctr -generate 1000000 -out synthetic.sctr
//	spacegen -in synthetic.sctr -stats
//	spacegen -in synthetic.sctr -text synthetic.tsv
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"starcdn/internal/geo"
	"starcdn/internal/spacegen"
	"starcdn/internal/trace"
	"starcdn/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("spacegen: ")
	var (
		synthProd = flag.Bool("synthesize-production", false,
			"generate a production-like trace (Akamai-trace substitute) instead of reading one")
		class      = flag.String("class", "video", "traffic class: video, web, download")
		requests   = flag.Int("requests", 100000, "requests for -synthesize-production")
		duration   = flag.Float64("duration", 86400, "trace span in seconds for -synthesize-production")
		in         = flag.String("in", "", "input trace file (binary format)")
		generate   = flag.Int("generate", 0, "fit models from -in (or -models) and generate this many synthetic requests")
		out        = flag.String("out", "", "output trace file (binary format)")
		saveModels = flag.String("save-models", "", "fit models from -in and save them as JSON to this file")
		models     = flag.String("models", "", "load previously saved models instead of fitting from -in")
		text       = flag.String("text", "", "write the -in trace as tab-separated text to this file")
		stats      = flag.Bool("stats", false, "print statistics of the -in trace")
		seed       = flag.Int64("seed", 42, "random seed")
	)
	flag.Parse()

	switch {
	case *synthProd:
		cls, err := workload.ClassByName(*class)
		if err != nil {
			log.Fatal(err)
		}
		g, err := workload.NewGenerator(cls, geo.PaperCities(), *seed)
		if err != nil {
			log.Fatal(err)
		}
		tr, err := g.Generate(*requests, *duration)
		if err != nil {
			log.Fatal(err)
		}
		writeTrace(*out, tr)
		printStats(tr)

	case *saveModels != "":
		m, err := spacegen.Fit(readTrace(*in))
		if err != nil {
			log.Fatal(err)
		}
		f, err := os.Create(*saveModels)
		if err != nil {
			log.Fatal(err)
		}
		if err := spacegen.SaveModels(f, m); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		log.Printf("saved models for %d locations (%d GPD tuples) to %s",
			len(m.GPD.Locations), len(m.GPD.Tuples), *saveModels)

	case *generate > 0:
		var m *spacegen.Models
		var err error
		if *models != "" {
			f, ferr := os.Open(*models)
			if ferr != nil {
				log.Fatal(ferr)
			}
			m, err = spacegen.LoadModels(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		} else {
			m, err = spacegen.Fit(readTrace(*in))
		}
		if err != nil {
			log.Fatal(err)
		}
		gen, err := spacegen.NewGenerator(m, *seed)
		if err != nil {
			log.Fatal(err)
		}
		syn, err := gen.Generate(*generate)
		if err != nil {
			log.Fatal(err)
		}
		writeTrace(*out, syn)
		printStats(syn)

	case *stats:
		printStats(readTrace(*in))

	case *text != "":
		tr := readTrace(*in)
		f, err := os.Create(*text)
		if err != nil {
			log.Fatal(err)
		}
		err = trace.WriteText(f, tr)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			log.Fatal(err)
		}

	default:
		flag.Usage()
		os.Exit(2)
	}
}

func readTrace(path string) *trace.Trace {
	if path == "" {
		log.Fatal("missing -in")
	}
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	tr, err := trace.Read(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		log.Fatalf("read %s: %v", path, err)
	}
	return tr
}

func writeTrace(path string, tr *trace.Trace) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	err = trace.Write(f, tr)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		log.Fatalf("write %s: %v", path, err)
	}
	log.Printf("wrote %s (%d requests)", path, tr.Len())
}

func printStats(tr *trace.Trace) {
	nObj, objBytes := tr.UniqueObjects()
	fmt.Printf("requests:        %d\n", tr.Len())
	fmt.Printf("duration:        %.1f h\n", tr.DurationSec()/3600)
	fmt.Printf("traffic:         %.2f GB\n", float64(tr.TotalBytes())/(1<<30))
	fmt.Printf("unique objects:  %d (%.2f GB footprint)\n", nObj, float64(objBytes)/(1<<30))
	fmt.Printf("locations:       %d\n", len(tr.Locations))
	for i, parts := 0, tr.SplitByLocation(); i < len(parts); i++ {
		fmt.Printf("  %-16s %10d requests\n", tr.Locations[i], parts[i].Len())
	}
	objSpread, trafSpread := workload.SpreadDistributions(tr)
	fmt.Printf("object spread:   ")
	for k := 1; k < len(objSpread); k++ {
		fmt.Printf("%d:%.2f ", k, objSpread[k])
	}
	fmt.Printf("\ntraffic spread:  ")
	for k := 1; k < len(trafSpread); k++ {
		fmt.Printf("%d:%.2f ", k, trafSpread[k])
	}
	fmt.Println()
}
