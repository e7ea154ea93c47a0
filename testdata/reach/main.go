// Command reach is the reachability oracle's fixture: main reaches square's
// Area only through the shape interface and the served counter directly;
// unused and the deadHits counter it alone touches are unreached, though
// deadHits registers itself when the program starts.
package main

import "fmt"

type shape interface{ Area() float64 }

type square struct{ side float64 }

func (q square) Area() float64 { return q.side * q.side }

type counter struct {
	name string
	n    int
}

var registry []*counter

func newCounter(name string) *counter {
	c := &counter{name: name}
	registry = append(registry, c)
	return c
}

var (
	served   = newCounter("served")
	deadHits = newCounter("dead")
)

func unused() { deadHits.n++ }

func main() {
	var s shape = square{side: 2}
	served.n++
	fmt.Println(s.Area(), served.n, len(registry))
}
