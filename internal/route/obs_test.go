package route

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/obs"
)

// TestRouteObsNeverPerturbsResult is the instrumentation contract for the
// router: an attached registry may change only what is observable on
// /metrics, never the routing. The congested workload forces several
// negotiation iterations so the reroute/requeue paths all record.
func TestRouteObsNeverPerturbsResult(t *testing.T) {
	a := arch.New(4, 4, 3)
	g := arch.BuildGraph(a)
	var nets []Net
	for y := 1; y <= 4; y++ {
		nets = append(nets, Net{
			Name:   fmt.Sprintf("h%d", y),
			Source: g.CLBSource(1, y),
			Sinks:  []int32{g.CLBSink(4, y)},
		})
	}
	plain, err := Route(g, nets, Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	observed, err := Route(g, nets, Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, observed) {
		t.Fatal("attaching a metrics registry changed the routing result")
	}

	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	stats, err := obs.ValidateText(buf.Bytes())
	if err != nil {
		t.Fatalf("router metrics are not valid exposition: %v\n%s", err, buf.Bytes())
	}
	for _, name := range []string{
		"mm_route_calls_total",
		"mm_route_iterations",
		"mm_route_rerouted_connections",
		"mm_route_requeued_connections",
		"mm_route_heap_pushes",
		"mm_route_nodes_visited",
		"mm_route_warm_connections",
	} {
		if !stats.Has(name) {
			t.Errorf("family %s missing from router metrics", name)
		}
	}
}

// TestRouteObservesFailedRoute: a route that gives up still did its
// work, so it is counted in mm_route_* exactly as its ErrUnroutable
// reports it. Eight nets share one column of a width-1 channel, which
// no negotiation can resolve.
func TestRouteObservesFailedRoute(t *testing.T) {
	g := arch.BuildGraph(arch.New(4, 4, 1))
	var nets []Net
	for y := 1; y <= 4; y++ {
		for _, x := range []int{1, 2} {
			nets = append(nets, Net{
				Name:   fmt.Sprintf("n%d_%d", x, y),
				Source: g.CLBSource(x, y),
				Sinks:  []int32{g.CLBSink(5-x, 5-y)},
			})
		}
	}
	reg := obs.NewRegistry()
	_, err := Route(g, nets, Options{Obs: reg, MaxIters: 4})
	var un *ErrUnroutable
	if !errors.As(err, &un) {
		t.Fatalf("route returned %v, want ErrUnroutable", err)
	}
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	sample := func(name string) float64 {
		for _, line := range strings.Split(buf.String(), "\n") {
			if v, ok := strings.CutPrefix(line, name+" "); ok {
				f, err := strconv.ParseFloat(v, 64)
				if err != nil {
					t.Fatal(err)
				}
				return f
			}
		}
		t.Fatalf("no sample %s in\n%s", name, buf.String())
		return 0
	}
	if got := sample("mm_route_calls_total"); got != 1 {
		t.Errorf("mm_route_calls_total = %v, want 1", got)
	}
	if got, want := sample("mm_route_heap_pushes_sum"), float64(un.Stats.HeapPushes); got != want || want == 0 {
		t.Errorf("mm_route_heap_pushes_sum = %v, want the error's %v", got, want)
	}
	if got := sample("mm_route_iterations_sum"); got != float64(un.Stats.Iterations) {
		t.Errorf("mm_route_iterations_sum = %v, want the error's %d", got, un.Stats.Iterations)
	}
}
