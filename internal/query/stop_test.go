package query

import (
	"math/rand"
	"testing"
)

// A stopped plan returns 0 and never a partial count, whichever kernel it
// reads: the triangle half, the star/pair sweep or path4's range counter.
func TestExecuteStopsOnDone(t *testing.T) {
	g := hubGraph(rand.New(rand.NewSource(31)), 120, 2000, 600, 5000)
	closed := make(chan struct{})
	close(closed)
	for _, text := range []string{"a->b; b->c; c->a", "a->b; a->c; a->d", "a->b; b->c; c->d"} {
		sp, err := ParseSpec(text)
		if err != nil {
			t.Fatal(err)
		}
		p := Compile(sp)
		if p.Execute(g, 300, Options{Workers: 2}) == 0 {
			t.Fatalf("%s: the test graph holds no instance", text)
		}
		if n := p.Execute(g, 300, Options{Workers: 2, Done: closed}); n != 0 {
			t.Fatalf("%s: a stopped plan counted %d", text, n)
		}
	}
}
