// Social pulse: star and pair motifs distinguish how accounts communicate —
// the paper's motivating use case ("communication motifs ... understand how
// human communication unfolds"). A broadcaster fires outgoing bursts
// (all-out star motifs); an audience magnet accumulates incoming bursts; a
// conversationalist alternates directions with a partner (pair motifs).
//
// This example plants one account of each style inside an organic messaging
// graph and shows that per-node motif profiles identify all three, while the
// organic hubs read as mixed traffic.
//
//	go run ./examples/socialpulse
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sort"

	"hare"
	"hare/internal/gen"
)

const delta = 600 // ten minutes

func main() {
	cfg := gen.Config{
		Name: "sms-like", Nodes: 8000, Edges: 120_000, TimeSpan: 3_000_000,
		ZipfS: 1.7, ReplyProb: 0.4, RepeatProb: 0.15, TriadProb: 0.02,
		BurstLen: 5, Seed: 21,
	}
	base, err := gen.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Plant three stylised accounts.
	r := rand.New(rand.NewSource(3))
	edges := base.Edges()
	_, maxT, _ := base.TimeSpan()
	broadcaster := hare.NodeID(cfg.Nodes)
	magnet := hare.NodeID(cfg.Nodes + 1)
	talker := hare.NodeID(cfg.Nodes + 2)
	partner := hare.NodeID(cfg.Nodes + 3)
	rnd := func(n int64) hare.Timestamp { return hare.Timestamp(r.Int63n(n)) }
	for burst := 0; burst < 40; burst++ {
		t0 := rnd(int64(maxT))
		// Star motifs need a repeated neighbor within the window, so each
		// burst concentrates on two favourite counterparties.
		favA := hare.NodeID(r.Intn(cfg.Nodes))
		favB := hare.NodeID(r.Intn(cfg.Nodes))
		for k := 0; k < 4; k++ {
			tgt, src := favA, favA
			if k == 3 {
				tgt, src = favB, favB
			}
			edges = append(edges,
				hare.Edge{From: broadcaster, To: tgt, Time: t0 + hare.Timestamp(k*30)},
				hare.Edge{From: src, To: magnet, Time: t0 + hare.Timestamp(k*30)},
			)
			if k%2 == 0 {
				edges = append(edges, hare.Edge{From: talker, To: partner, Time: t0 + hare.Timestamp(k*40)})
			} else {
				edges = append(edges, hare.Edge{From: partner, To: talker, Time: t0 + hare.Timestamp(k*40)})
			}
		}
	}
	g := hare.FromEdges(edges)
	fmt.Printf("message graph: %d users, %d messages (3 planted styles)\n\n",
		g.NumNodes(), g.NumEdges())

	// Profile the busiest organic hubs plus the planted accounts.
	type row struct {
		node  hare.NodeID
		label string
	}
	var rows []row
	type hub struct {
		node   hare.NodeID
		degree int
	}
	hubs := make([]hub, 0, g.NumNodes())
	for u := 0; u < cfg.Nodes; u++ {
		if d := g.Degree(hare.NodeID(u)); d > 0 {
			hubs = append(hubs, hub{hare.NodeID(u), d})
		}
	}
	sort.Slice(hubs, func(i, j int) bool { return hubs[i].degree > hubs[j].degree })
	for _, h := range hubs[:5] {
		rows = append(rows, row{h.node, "organic hub"})
	}
	rows = append(rows,
		row{broadcaster, "planted broadcaster"},
		row{magnet, "planted magnet"},
		row{talker, "planted talker"},
	)

	fmt.Printf("%8s %8s %10s %10s %10s %8s  %-19s %s\n",
		"user", "degree", "out-stars", "in-stars", "pairs", "p-ratio", "truth", "classified")
	agree := 0
	for _, rw := range rows {
		m, err := hare.CountNode(g, rw.node, delta)
		if err != nil {
			log.Fatal(err)
		}
		outStars := m.At(hare.MustLabel("M13")) + m.At(hare.MustLabel("M33")) + m.At(hare.MustLabel("M53"))
		inStars := m.At(hare.MustLabel("M22")) + m.At(hare.MustLabel("M42")) + m.At(hare.MustLabel("M62"))
		stars := m.CategoryTotal(hare.CategoryStar)
		pairs := m.CategoryTotal(hare.CategoryPair)
		pRatio := float64(pairs) / float64(stars+pairs+1)
		style := classify(outStars, inStars, stars, pRatio)
		fmt.Printf("%8d %8d %10d %10d %10d %8.3f  %-19s %s\n",
			rw.node, g.Degree(rw.node), outStars, inStars, pairs, pRatio, rw.label, style)
		switch {
		case rw.label == "planted broadcaster" && style == "broadcaster",
			rw.label == "planted magnet" && style == "audience magnet",
			rw.label == "planted talker" && style == "conversationalist",
			rw.label == "organic hub" && style == "mixed":
			agree++
		}
	}
	fmt.Printf("\n%d/%d profiles classified as planted/expected\n", agree, len(rows))
	if agree < len(rows)-1 {
		log.Fatal("motif profiling failed to recover the planted styles")
	}
}

// classify derives a communication style from a node's motif profile.
func classify(outStars, inStars, stars uint64, pairRatio float64) string {
	switch {
	case pairRatio > 0.6:
		return "conversationalist"
	case stars > 0 && outStars > 4*(inStars+1):
		return "broadcaster"
	case stars > 0 && inStars > 4*(outStars+1):
		return "audience magnet"
	default:
		return "mixed"
	}
}
