// Command emcalibrate is the developer-facing calibration harness
// used to tune the simulation substrate against the paper:
//
//	emcalibrate oracle            # ideal-weight F1 per dataset (difficulty bands)
//	emcalibrate inspect wdc       # hardest matches / easiest non-matches
//	emcalibrate plmsweep wdc ag   # PLM training hyperparameter sweep
//	emcalibrate profiles          # calibrated capability constants per model
//
// The zero-shot matrix and the PLM baselines are paper tables:
// `emexperiments -table 2`, `-table 3` and `-table 4` print them.
package main

import (
	"fmt"
	"os"
	"sort"

	"llm4em/internal/datasets"
	"llm4em/internal/eval"
	"llm4em/internal/features"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "oracle":
		oracleSweep()
	case "inspect":
		if len(os.Args) < 3 {
			usage()
		}
		inspect(os.Args[2], 8)
	case "plmsweep":
		plmSweep(os.Args[2:])
	case "profiles":
		printProfiles()
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: emcalibrate oracle | inspect <dataset> | plmsweep <datasets> | profiles")
	os.Exit(2)
}

// oracleSweep reports the ideal-weight matcher per dataset: score
// distributions, F1 at the zero threshold, and the best achievable
// threshold — the difficulty-band calibration view.
func oracleSweep() {
	ws := features.Ideal()
	for _, key := range datasets.Keys() {
		d := datasets.MustLoad(key)
		var posScores, negScores []float64
		type scored struct {
			s     float64
			match bool
		}
		var all []scored
		for _, p := range d.Test {
			v, pres := features.PairFeaturesText(p.A.Serialize(), p.B.Serialize())
			s := ws.Score(v, pres)
			all = append(all, scored{s, p.Match})
			if p.Match {
				posScores = append(posScores, s)
			} else {
				negScores = append(negScores, s)
			}
		}
		sort.Slice(all, func(i, j int) bool { return all[i].s < all[j].s })
		bestF1, bestT := 0.0, 0.0
		for i := 0; i <= 200; i++ {
			t := -4 + float64(i)*0.05
			var c eval.Confusion
			for _, x := range all {
				c.Add(x.match, x.s > t)
			}
			if f := c.F1(); f > bestF1 {
				bestF1, bestT = f, t
			}
		}
		var c0 eval.Confusion
		for _, x := range all {
			c0.Add(x.match, x.s > 0)
		}
		fmt.Printf("%-4s posMean=%+.2f negMean=%+.2f  F1@0=%.1f (P=%.2f R=%.2f)  bestF1=%.1f @t=%+.2f\n",
			key, eval.Mean(posScores), eval.Mean(negScores), c0.F1(), c0.Precision(), c0.Recall(), bestF1, bestT)
	}
}
