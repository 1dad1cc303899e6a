package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// Two graphs over four shards that both carry starTrace's traffic:
// the star it actually uses, and the complete graph.
var (
	starEdges     = [][]int{{3}, {3}, {3}, {0, 1, 2}}
	completeEdges = [][]int{{1, 2, 3}, {0, 2, 3}, {0, 1, 3}, {0, 1, 2}}
)

// starTrace runs a hub-and-spoke workload under the given topology:
// three spoke shards fire same-timestamp requests into hub shard 3,
// which answers each on its back-edge. Returns per-shard
// (label, time) traces.
func starTrace(lookahead Time, edges [][]int) [4][]string {
	const hub = 3
	sl := NewShardedLoop(0, lookahead, edges)
	var trace [4][]string
	note := func(shard int, what string, at Time) {
		trace[shard] = append(trace[shard], fmt.Sprintf("%s @%d", what, at))
	}
	for spoke := 0; spoke < 3; spoke++ {
		spoke := spoke
		rounds := 0
		var fire func()
		fire = func() {
			now := sl.Shard(spoke).Now()
			note(spoke, "req", now)
			if rounds++; rounds > 8 {
				return
			}
			// Every spoke sends at the same timestamps each round, so the
			// hub's (at, src, idx) merge order is what keeps this
			// deterministic.
			sl.Send(spoke, hub, now+lookahead, func() {
				hubNow := sl.Shard(hub).Now()
				note(hub, fmt.Sprintf("serve%d", spoke), hubNow)
				sl.Send(hub, spoke, hubNow+lookahead, fire)
			})
		}
		sl.Shard(spoke).Schedule(0, fire)
	}
	sl.Run()
	return trace
}

func TestShardedLoopTopologyDeterministicTrace(t *testing.T) {
	first := starTrace(7, starEdges)
	for i := 0; i < 5; i++ {
		if got := starTrace(7, starEdges); !reflect.DeepEqual(got, first) {
			t.Fatalf("run %d diverged:\n%v\nvs\n%v", i, got, first)
		}
	}
	for i, tr := range first {
		if len(tr) == 0 {
			t.Fatalf("shard %d produced an empty trace", i)
		}
	}
}

func TestShardedLoopStarMatchesCompleteGraph(t *testing.T) {
	// Declaring extra, unused edges holds shards back for longer but
	// must change scheduling only, never simulated times or per-shard
	// event order.
	if got, want := starTrace(7, starEdges), starTrace(7, completeEdges); !reflect.DeepEqual(got, want) {
		t.Fatalf("star trace diverged from complete-graph trace:\n%v\nvs\n%v", got, want)
	}
}

func TestShardedLoopSendWithoutEdgesPanics(t *testing.T) {
	// A loop built with no edges is the replica configuration: every
	// shard runs to the end in one round, which is only sound because
	// no shard can Send.
	sl := NewShardedLoop(0, 5, make([][]int, 2))
	defer func() {
		if recover() == nil {
			t.Fatal("Send on a loop without edges did not panic")
		}
	}()
	sl.Send(0, 1, 10, func() {})
}

func TestShardedLoopTopologyPanicsOnUndeclaredEdge(t *testing.T) {
	sl := NewShardedLoop(0, 5, [][]int{{1}, {0}, nil})
	defer func() {
		if recover() == nil {
			t.Fatal("Send on an undeclared edge did not panic")
		}
	}()
	// The edge check guards Send itself, before any loop machinery runs.
	sl.Send(0, 2, 10, func() {})
}

func TestShardedLoopTopologyValidation(t *testing.T) {
	for _, edges := range [][][]int{
		{},            // no shards
		{{2}, nil},    // destination out of range
		{{-1}, nil},   // negative destination
		{{0}, nil},    // self edge
		{{1, 1}, nil}, // duplicate edge
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewShardedLoop(%v) did not panic", edges)
				}
			}()
			NewShardedLoop(0, 5, edges)
		}()
	}
}

// TestShardedLoopTopologyChainForwarding exercises the case the
// single-hop horizon bound gets wrong: shard 0 sends to shard 1,
// which immediately forwards to shard 2, so shard 2 receives mail at
// g+2*lookahead even though shard 1's own next local event is far in
// the future. The EOT fixpoint must hold shard 2 back; if it ran
// ahead, the forwarded mail would arrive in its past and either panic
// or silently reorder.
func TestShardedLoopTopologyChainForwarding(t *testing.T) {
	const la = 10
	sl := NewShardedLoop(0, la, [][]int{{1}, {2}, nil})
	var got []Time
	// Shard 2 has a dense local train the forwarded mail must interleave
	// with deterministically.
	for k := Time(0); k < 100; k += 3 {
		k := k
		sl.Shard(2).Schedule(k, func() { _ = k })
	}
	sl.Shard(0).Schedule(0, func() {
		sl.Send(0, 1, la, func() {
			sl.Send(1, 2, sl.Shard(1).Now()+la, func() {
				got = append(got, sl.Shard(2).Now())
			})
		})
	})
	// Shard 1's only local event is far out: a single-hop bound would
	// release shard 2 through time 1000+la and lose the forward.
	sl.Shard(1).Schedule(1000, func() {})
	sl.Run()
	if want := []Time{2 * la}; !reflect.DeepEqual(got, want) {
		t.Fatalf("forwarded mail ran at %v, want %v", got, want)
	}
}

func TestShardedLoopTopologySameTimestampFanIn(t *testing.T) {
	// All three spokes send mail stamped with the identical timestamp;
	// the hub must apply them in (at, src, idx) order every run.
	run := func() []string {
		sl := NewShardedLoop(0, 5, starEdges)
		var order []string
		for spoke := 0; spoke < 3; spoke++ {
			spoke := spoke
			sl.Shard(spoke).Schedule(0, func() {
				for i := 0; i < 2; i++ {
					i := i
					sl.Send(spoke, 3, 5, func() {
						order = append(order, fmt.Sprintf("s%d.%d@%d", spoke, i, sl.Shard(3).Now()))
					})
				}
			})
		}
		sl.Run()
		return order
	}
	first := run()
	if len(first) != 6 {
		t.Fatalf("hub ran %d of 6 mails: %v", len(first), first)
	}
	want := []string{"s0.0@5", "s0.1@5", "s1.0@5", "s1.1@5", "s2.0@5", "s2.1@5"}
	if !reflect.DeepEqual(first, want) {
		t.Fatalf("fan-in order %v, want %v", first, want)
	}
	for i := 0; i < 10; i++ {
		if got := run(); !reflect.DeepEqual(got, first) {
			t.Fatalf("run %d diverged: %v vs %v", i, got, first)
		}
	}
}
