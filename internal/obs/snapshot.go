package obs

import (
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
)

// Field is one metric-tagged integer field of a snapshot struct.
type Field struct {
	Name, Help string
	Value      float64
}

// Fields returns the metric-tagged fields of the struct v in declaration
// order, descending into untagged struct-valued fields. A snapshot struct
// is the one definition of its counters: each reported integer field
// carries its family name and help text as struct tags,
//
//	Puts uint64 `metric:"mm_store_puts_total" help:"Artifacts written to the persistent store."`
//
// so its /metrics family (RegisterSnapshot) and any text rendering of the
// snapshot come from the same line. A metric tag on a non-integer field
// is a programming error and panics.
func Fields(v any) []Field {
	return appendFields(nil, reflect.ValueOf(v))
}

func appendFields(out []Field, v reflect.Value) []Field {
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		sf, fv := t.Field(i), v.Field(i)
		name := sf.Tag.Get("metric")
		if name == "" {
			if fv.Kind() == reflect.Struct {
				out = appendFields(out, fv)
			}
			continue
		}
		f := Field{Name: name, Help: sf.Tag.Get("help")}
		switch fv.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			f.Value = float64(fv.Int())
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			f.Value = float64(fv.Uint())
		default:
			panic(fmt.Sprintf("obs: metric tag %q on %s field %s.%s", name, fv.Kind(), t.Name(), sf.Name))
		}
		out = append(out, f)
	}
	return out
}

// RegisterSnapshot registers a func-backed family for every field Fields
// finds in T: a name ending in _total is a counter, any other a gauge.
// take runs once per scrape, in an OnScrape hook, and every family of
// that exposition reads the one snapshot it returned — so a scrape is
// coherent, and /metrics agrees with whatever else renders the same
// snapshot (a /stats document, a log line). A nil registry is a no-op.
func RegisterSnapshot[T any](r *Registry, take func() T) {
	if r == nil {
		return
	}
	var cur atomic.Pointer[[]Field]
	r.OnScrape(func() {
		fs := Fields(take())
		cur.Store(&fs)
	})
	var zero T
	for i, f := range Fields(zero) {
		// WriteText runs the hook before rendering any family, so cur is
		// set whenever a value is read.
		value := func() float64 { return (*cur.Load())[i].Value }
		if strings.HasSuffix(f.Name, "_total") {
			r.CounterFunc(f.Name, f.Help, value)
		} else {
			r.GaugeFunc(f.Name, f.Help, value)
		}
	}
}
