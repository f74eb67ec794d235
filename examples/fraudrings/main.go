// Fraud rings: temporal cycles (motif M26 — funds moving a→b→c→a within a
// short window) are a classic money-laundering signal in transaction
// networks. This example builds a Bitcoin-OTC-like synthetic transaction
// graph, plants laundering rings on otherwise quiet accounts, and flags
// accounts by their *cycle concentration* — the share of their motif
// activity that is cyclic. Organic hubs participate in some cycles amid
// mountains of star traffic; ring mules do almost nothing but cycle.
//
// It also cross-checks the graph-wide exact cycle count of HARE against the
// dedicated 2SCENT cycle enumerator.
//
//	go run ./examples/fraudrings
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sort"
	"time"

	"hare"
	"hare/internal/baseline/twoscent"
	"hare/internal/gen"
)

const (
	delta     = 3600 // one hour: rings cycle fast
	rings     = 40   // planted 3-party laundering loops
	ringNodes = 24   // mule accounts involved in rings
)

func main() {
	// Organic background with transaction-network character.
	cfg := gen.Config{
		Name: "otc-like", Nodes: 4000, Edges: 120_000, TimeSpan: 2_000_000,
		ZipfS: 1.8, ReplyProb: 0.05, RepeatProb: 0.05, TriadProb: 0.04,
		BurstLen: 3, Seed: 7,
	}
	base, err := gen.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Plant rings among dedicated mule accounts (IDs cfg.Nodes ..).
	r := rand.New(rand.NewSource(99))
	edges := base.Edges()
	_, maxT, _ := base.TimeSpan()
	mule := func() hare.NodeID { return hare.NodeID(cfg.Nodes + r.Intn(ringNodes)) }
	for i := 0; i < rings; i++ {
		a, b, c := mule(), mule(), mule()
		if a == b || b == c || a == c {
			continue
		}
		t0 := hare.Timestamp(r.Int63n(int64(maxT)))
		edges = append(edges,
			hare.Edge{From: a, To: b, Time: t0},
			hare.Edge{From: b, To: c, Time: t0 + hare.Timestamp(60+r.Int63n(600))},
			hare.Edge{From: c, To: a, Time: t0 + hare.Timestamp(900+r.Int63n(1200))},
		)
	}
	g := hare.FromEdges(edges)
	fmt.Printf("transaction graph: %d accounts, %d transfers, %d planted ring edges\n",
		g.NumNodes(), g.NumEdges(), g.NumEdges()-base.NumEdges())

	// Graph-wide exact counts, cross-checked against 2SCENT.
	t0 := time.Now()
	res, err := hare.Count(g, delta)
	if err != nil {
		log.Fatal(err)
	}
	cycles := res.Matrix.At(hare.MustLabel("M26"))
	fmt.Printf("HARE:   %d temporal cycles (M26) among %d total motifs in %v\n",
		cycles, res.Matrix.Total(), time.Since(t0))
	t0 = time.Now()
	ref := twoscent.CountCycles(g, delta)
	fmt.Printf("2SCENT: %d temporal cycles in %v (cycle-only enumerator)\n", ref, time.Since(t0))
	if cycles != ref {
		log.Fatalf("cycle counts disagree: %d vs %d", cycles, ref)
	}

	// Per-account screening: cycle concentration = cycles / total motifs.
	type suspect struct {
		node   hare.NodeID
		cycles uint64
		total  uint64
		score  float64
	}
	var scored []suspect
	for u := 0; u < g.NumNodes(); u++ {
		if g.Degree(hare.NodeID(u)) < 3 {
			continue
		}
		m, err := hare.CountNode(g, hare.NodeID(u), delta)
		if err != nil {
			log.Fatal(err)
		}
		cyc := m.At(hare.MustLabel("M26"))
		if cyc == 0 {
			continue
		}
		tot := m.Total()
		scored = append(scored, suspect{hare.NodeID(u), cyc, tot, float64(cyc) / float64(tot)})
	}
	sort.Slice(scored, func(i, j int) bool { return scored[i].score > scored[j].score })

	fmt.Printf("\ntop accounts by cycle concentration (mules are IDs %d..%d):\n",
		cfg.Nodes, cfg.Nodes+ringNodes-1)
	fmt.Printf("%8s %8s %10s %8s  %s\n", "account", "cycles", "motifs", "score", "verdict")
	hits := 0
	k := 15
	if len(scored) < k {
		k = len(scored)
	}
	for _, s := range scored[:k] {
		verdict := "organic"
		if int(s.node) >= cfg.Nodes {
			verdict = "PLANTED MULE"
			hits++
		}
		fmt.Printf("%8d %8d %10d %8.3f  %s\n", s.node, s.cycles, s.total, s.score, verdict)
	}
	fmt.Printf("\n%d of the top %d flagged accounts are planted mules\n", hits, k)
	if hits < k*2/3 {
		log.Fatal("cycle-concentration screening failed to surface the rings")
	}
}
