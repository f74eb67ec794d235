// Anomaly detection via motif significance: raw motif counts mean little on
// their own — a million stars may be perfectly normal for a graph with hubs.
// The paper's motivating applications (fraud and anomaly detection) instead
// ask which counts are *surprising*, and the standard answer (Milo et al.,
// Science 2002) is to compare against ensembles of randomised null graphs:
//
//	z = (real − mean_null) / std_null
//
// This walkthrough plants a coordinated ping-pong attack — tight a⇄b message
// bursts, a classic account-takeover signature — inside an organic message
// network, then lets the parallel significance engine find it:
//
//  1. TimeShuffle nulls keep who-talks-to-whom and randomise only *when*:
//     a large z here means the timing itself is anomalous.
//  2. DegreeRewire nulls keep everyone's activity level and randomise the
//     wiring: a large z here means the *structure* is anomalous.
//
// The planted attack is temporal (the pairs already exist; the bursts are
// the anomaly), so it lights up the time-shuffle null specifically — and the
// example checks the empirical p-value bottoms out at its resolution floor.
//
//	go run ./examples/anomaly
package main

import (
	"fmt"
	"log"
	"math/rand"

	"hare"
	"hare/internal/gen"
)

const (
	delta   = 120 // two minutes: the attack cycles in seconds
	samples = 40
	bursts  = 120
)

func main() {
	// Organic message traffic: hub-skewed, mildly conversational. Kept
	// temporally diffuse (long horizon, short bursts) so the interesting
	// signal is the one we plant.
	base, err := gen.Generate(gen.Config{
		Name: "messages", Nodes: 2000, Edges: 40_000, TimeSpan: 3_000_000,
		ZipfS: 1.6, ReplyProb: 0.03, RepeatProb: 0.05, BurstLen: 1, Seed: 17,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Plant the attack: compromised accounts exchanging rapid ping-pong
	// probes (a→b, b→a, a→b within seconds).
	r := rand.New(rand.NewSource(5))
	edges := base.Edges()
	for i := 0; i < bursts; i++ {
		a := hare.NodeID(r.Intn(2000))
		b := hare.NodeID(r.Intn(2000))
		if a == b {
			b = (b + 1) % 2000
		}
		t0 := hare.Timestamp(r.Int63n(3_000_000))
		edges = append(edges,
			hare.Edge{From: a, To: b, Time: t0},
			hare.Edge{From: b, To: a, Time: t0 + 7},
			hare.Edge{From: a, To: b, Time: t0 + 15},
		)
	}
	g := hare.FromEdges(edges)
	fmt.Printf("graph: %d nodes, %d edges (planted %d ping-pong bursts)\n\n",
		g.NumNodes(), g.NumEdges(), bursts)

	// Significance against both null models. The engine draws and counts
	// the ensembles in parallel; the seed pins the exact samples, so this
	// output is reproducible at any worker count.
	for _, model := range []hare.NullModel{hare.NullTimeShuffle, hare.NullDegreeRewire} {
		rep, err := hare.Significance(g, delta, hare.SignificanceOptions{
			Model: model, Trials: samples, Seed: 11,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("null=%v (%d samples, %d workers)\n", model, rep.Trials, rep.Workers)
		fmt.Printf("  %-6s %12s %14s %10s %8s\n", "motif", "real", "null mean", "z", "p")
		for _, lc := range rep.TopSignificant(3) {
			l := lc.Label
			p := rep.PUpperAt(l)
			if rep.ZScore(l) < 0 {
				p = rep.PLowerAt(l)
			}
			fmt.Printf("  %-6s %12d %14.1f %10.1f %8.4f\n",
				l, lc.Count, rep.MeanAt(l), rep.ZScore(l), p)
		}
	}

	// The ping-pong motif M65 (a→b, b→a, a→b) is the attack's fingerprint:
	// hugely over-represented against time-shuffled nulls, because only the
	// timing — not the wiring — was planted.
	rep, err := hare.Significance(g, delta, hare.SignificanceOptions{
		Model: hare.NullTimeShuffle, Trials: samples, Seed: 11,
	})
	if err != nil {
		log.Fatal(err)
	}
	m65 := hare.MustLabel("M65")
	fmt.Printf("\nverdict: M65 z=%.1f against time-shuffle (p=%.4f, floor %.4f)\n",
		rep.ZScore(m65), rep.PUpperAt(m65), 1.0/float64(samples+1))
	if rep.ZScore(m65) < 3 {
		log.Fatal("planted attack not detected — significance engine regression")
	}
}
