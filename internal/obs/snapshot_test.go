package obs

import (
	"bytes"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

type innerSnap struct {
	Puts  uint64 `metric:"mm_inner_puts_total" help:"Inner puts."`
	Level int32  `metric:"mm_inner_level" help:"Inner level."`
}

type outerSnap struct {
	Requests uint64 `metric:"mm_outer_requests_total" help:"Outer requests."`
	Queue    int64  `metric:"mm_outer_queue" help:"Outer queue."`
	Name     string // untagged: ignored
	Untagged int    // untagged: ignored
	Inner    innerSnap
}

func TestFieldsWalksNestedStructs(t *testing.T) {
	got := Fields(outerSnap{Requests: 3, Queue: -2, Untagged: 9, Inner: innerSnap{Puts: 5, Level: 7}})
	want := []Field{
		{"mm_outer_requests_total", "Outer requests.", 3},
		{"mm_outer_queue", "Outer queue.", -2},
		{"mm_inner_puts_total", "Inner puts.", 5},
		{"mm_inner_level", "Inner level.", 7},
	}
	if len(got) != len(want) {
		t.Fatalf("Fields = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("field %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestFieldsRejectsTaggedNonInteger(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a metric tag on a string field did not panic")
		}
	}()
	Fields(struct {
		S string `metric:"mm_s"`
	}{})
}

// TestRegisterSnapshot: one func family per tagged field, typed by its
// name's suffix, all read from a single snapshot per scrape.
func TestRegisterSnapshot(t *testing.T) {
	r := NewRegistry()
	takes := 0
	RegisterSnapshot(r, func() outerSnap {
		takes++
		n := uint64(takes)
		return outerSnap{Requests: 10 * n, Queue: 4, Inner: innerSnap{Puts: n, Level: 1}}
	})
	if takes != 0 {
		t.Fatalf("registration took %d snapshots, want 0", takes)
	}
	for scrape := 1; scrape <= 2; scrape++ {
		var buf bytes.Buffer
		if err := r.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		if takes != scrape {
			t.Fatalf("after %d scrapes the snapshot was taken %d times", scrape, takes)
		}
		st, err := ValidateText(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		for name, typ := range map[string]string{
			"mm_outer_requests_total": "counter",
			"mm_outer_queue":          "gauge",
			"mm_inner_puts_total":     "counter",
			"mm_inner_level":          "gauge",
		} {
			if st.Families[name] != typ {
				t.Errorf("%s TYPE %q, want %q", name, st.Families[name], typ)
			}
		}
		// Every value of this scrape comes from the same (scrape-th)
		// snapshot.
		out := buf.String()
		for _, line := range []string{
			"# HELP mm_outer_requests_total Outer requests.\n",
			"mm_outer_requests_total " + formatFloat(float64(10*scrape)) + "\n",
			"mm_outer_queue 4\n",
			"mm_inner_puts_total " + formatFloat(float64(scrape)) + "\n",
			"mm_inner_level 1\n",
		} {
			if !strings.Contains(out, line) {
				t.Errorf("scrape %d lacks %q:\n%s", scrape, line, out)
			}
		}
		if st.Series != 4 {
			t.Errorf("scrape %d exposes %d series, want the 4 tagged fields:\n%s", scrape, st.Series, out)
		}
	}
}

func TestRegisterSnapshotNilRegistry(t *testing.T) {
	var r *Registry
	RegisterSnapshot(r, func() outerSnap {
		t.Fatal("nil registry took a snapshot")
		return outerSnap{}
	})
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil registry wrote %q (err %v)", buf.String(), err)
	}
}

// TestRegisterSnapshotConcurrentScrapes: scrapes racing each other still
// render each exposition from a single snapshot.
func TestRegisterSnapshotConcurrentScrapes(t *testing.T) {
	r := NewRegistry()
	var takes atomic.Uint64
	RegisterSnapshot(r, func() outerSnap {
		n := takes.Add(1)
		return outerSnap{Requests: 10 * n, Inner: innerSnap{Puts: n}}
	})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				var buf bytes.Buffer
				if err := r.WriteText(&buf); err != nil {
					t.Error(err)
					return
				}
				var requests, puts float64
				for _, line := range strings.Split(buf.String(), "\n") {
					if v, ok := strings.CutPrefix(line, "mm_outer_requests_total "); ok {
						requests, _ = strconv.ParseFloat(v, 64)
					}
					if v, ok := strings.CutPrefix(line, "mm_inner_puts_total "); ok {
						puts, _ = strconv.ParseFloat(v, 64)
					}
				}
				if requests != 10*puts {
					t.Errorf("one scrape mixed snapshots: requests %v, puts %v", requests, puts)
					return
				}
			}
		}()
	}
	wg.Wait()
}
