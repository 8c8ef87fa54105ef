package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// TextContentType is the Content-Type of the exposition format WriteText
// emits.
const TextContentType = "text/plain; version=0.0.4; charset=utf-8"

// WriteText renders every family as Prometheus text exposition format:
// families in name order, series in creation order, histograms as
// cumulative _bucket/_sum/_count triples. OnScrape hooks run first, so
// func-backed families render fresh values. A nil registry writes
// nothing.
func (r *Registry) WriteText(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.scrape.Lock()
	defer r.scrape.Unlock()
	r.mu.Lock()
	hooks := append([]func(){}, r.onScrape...)
	fams := make([]*family, 0, len(r.byName))
	for _, f := range r.byName {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	for _, h := range hooks {
		h()
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	bw := bufio.NewWriter(w)
	for _, f := range fams {
		if err := f.write(bw); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// labelString renders {k="v",...}; extra appends one more pair (the
// histogram le label). Returns "" for no labels.
func labelString(keys, values []string, extraKey, extraVal string) string {
	if len(keys) == 0 && extraKey == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, k, escapeLabel(values[i]))
	}
	if extraKey != "" {
		if len(keys) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, extraKey, escapeLabel(extraVal))
	}
	b.WriteByte('}')
	return b.String()
}

func (f *family) write(w *bufio.Writer) error {
	f.mu.Lock()
	series := append([]*series{}, f.order...)
	f.mu.Unlock()
	if f.value == nil && len(series) == 0 {
		return nil // registered vec with no series yet: emit nothing
	}
	fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind)
	if f.value != nil {
		fmt.Fprintf(w, "%s %s\n", f.name, formatFloat(f.value()))
		return nil
	}
	for _, s := range series {
		switch f.kind {
		case kindCounter, kindGauge:
			fmt.Fprintf(w, "%s%s %s\n", f.name, labelString(f.keys, s.labels, "", ""),
				formatFloat(math.Float64frombits(s.bits.Load())))
		case kindHistogram:
			cum := uint64(0)
			for i, b := range f.bounds {
				cum += s.counts[i].Load()
				fmt.Fprintf(w, "%s_bucket%s %d\n", f.name,
					labelString(f.keys, s.labels, "le", formatFloat(b)), cum)
			}
			cum += s.inf.Load()
			fmt.Fprintf(w, "%s_bucket%s %d\n", f.name,
				labelString(f.keys, s.labels, "le", "+Inf"), cum)
			fmt.Fprintf(w, "%s_sum%s %s\n", f.name, labelString(f.keys, s.labels, "", ""),
				formatFloat(math.Float64frombits(s.sumBits.Load())))
			fmt.Fprintf(w, "%s_count%s %d\n", f.name, labelString(f.keys, s.labels, "", ""), cum)
		}
	}
	return nil
}

// TextStats summarises a validated exposition body.
type TextStats struct {
	// Families maps family name to declared TYPE.
	Families map[string]string
	// Series is the number of distinct sample series.
	Series int
}

// Has reports whether the family was declared.
func (t *TextStats) Has(name string) bool {
	_, ok := t.Families[name]
	return ok
}

// ValidateText parses a Prometheus text exposition body and checks the
// structural invariants the /metrics format test (and the CI smoke's
// promcheck) gate on:
//
//   - every sample belongs to a family with a preceding # TYPE line (and
//     at most one TYPE per family);
//   - no duplicate series (same sample name + label set twice);
//   - histogram buckets are cumulative (counts non-decreasing with
//     ascending le), the +Inf bucket exists, and _count equals it.
//
// It returns the family names and series count so callers can assert
// required series exist.
func ValidateText(data []byte) (*TextStats, error) {
	st := &TextStats{Families: map[string]string{}}
	seen := map[string]bool{} // sample name + canonical labels
	type bucketSet struct {
		family string
		les    []float64
		counts []float64
	}
	buckets := map[string]*bucketSet{} // keyed by family + non-le labels
	counts := map[string]float64{}     // _count samples, same key
	sawSample := map[string]bool{}     // family → any sample seen

	lineNo := 0
	for _, line := range strings.Split(string(data), "\n") {
		lineNo++
		line = strings.TrimRight(line, "\r")
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				continue // arbitrary comment
			}
			name := fields[2]
			if !validName(name) {
				return nil, fmt.Errorf("line %d: invalid family name %q", lineNo, name)
			}
			if fields[1] == "TYPE" {
				if len(fields) != 4 {
					return nil, fmt.Errorf("line %d: malformed TYPE line", lineNo)
				}
				typ := fields[3]
				switch typ {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return nil, fmt.Errorf("line %d: unknown type %q", lineNo, typ)
				}
				if _, dup := st.Families[name]; dup {
					return nil, fmt.Errorf("line %d: duplicate TYPE for family %s", lineNo, name)
				}
				if sawSample[name] {
					return nil, fmt.Errorf("line %d: TYPE for %s after its samples", lineNo, name)
				}
				st.Families[name] = typ
			}
			continue
		}

		name, labels, value, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		family := name
		suffix := ""
		for _, sfx := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, sfx)
			if base != name && st.Families[base] == "histogram" {
				family, suffix = base, sfx
				break
			}
		}
		typ, declared := st.Families[family]
		if !declared {
			return nil, fmt.Errorf("line %d: sample %s has no TYPE declaration", lineNo, name)
		}
		if typ == "histogram" && suffix == "" {
			return nil, fmt.Errorf("line %d: bare sample %s for histogram family", lineNo, name)
		}
		sawSample[family] = true

		canon := canonicalLabels(labels, "")
		key := name + canon
		if seen[key] {
			return nil, fmt.Errorf("line %d: duplicate series %s%s", lineNo, name, canon)
		}
		seen[key] = true
		st.Series++

		if suffix == "_bucket" {
			le, ok := labels["le"]
			if !ok {
				return nil, fmt.Errorf("line %d: %s_bucket without le label", lineNo, family)
			}
			var lef float64
			if le == "+Inf" {
				lef = math.Inf(1)
			} else if lef, err = strconv.ParseFloat(le, 64); err != nil {
				return nil, fmt.Errorf("line %d: bad le %q", lineNo, le)
			}
			bkey := family + canonicalLabels(labels, "le")
			bs := buckets[bkey]
			if bs == nil {
				bs = &bucketSet{family: family}
				buckets[bkey] = bs
			}
			bs.les = append(bs.les, lef)
			bs.counts = append(bs.counts, value)
		}
		if suffix == "_count" {
			counts[family+canonicalLabels(labels, "")] = value
		}
	}

	for bkey, bs := range buckets {
		idx := make([]int, len(bs.les))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(i, j int) bool { return bs.les[idx[i]] < bs.les[idx[j]] })
		last := math.Inf(-1)
		prev := -1.0
		for _, i := range idx {
			if bs.les[i] == last {
				return nil, fmt.Errorf("histogram %s: duplicate le bound %v", bkey, last)
			}
			last = bs.les[i]
			if bs.counts[i] < prev {
				return nil, fmt.Errorf("histogram %s: bucket counts not cumulative at le=%v", bkey, last)
			}
			prev = bs.counts[i]
		}
		if !math.IsInf(last, 1) {
			return nil, fmt.Errorf("histogram %s: missing +Inf bucket", bkey)
		}
		if c, ok := counts[bkey]; ok && c != prev {
			return nil, fmt.Errorf("histogram %s: _count %v != +Inf bucket %v", bkey, c, prev)
		}
	}
	return st, nil
}

// canonicalLabels renders a label map sorted by key, omitting skip.
func canonicalLabels(labels map[string]string, skip string) string {
	if len(labels) == 0 {
		return "{}"
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if k != skip {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%q,", k, labels[k])
	}
	b.WriteByte('}')
	return b.String()
}

// parseSample parses `name{k="v",...} value [timestamp]`.
func parseSample(line string) (string, map[string]string, float64, error) {
	rest := line
	end := strings.IndexAny(rest, "{ ")
	if end < 0 {
		return "", nil, 0, fmt.Errorf("malformed sample %q", line)
	}
	name := rest[:end]
	if !validName(name) {
		return "", nil, 0, fmt.Errorf("invalid sample name %q", name)
	}
	labels := map[string]string{}
	rest = rest[end:]
	if rest[0] == '{' {
		rest = rest[1:]
		for {
			rest = strings.TrimLeft(rest, " ")
			if rest == "" {
				return "", nil, 0, fmt.Errorf("unterminated label set in %q", line)
			}
			if rest[0] == '}' {
				rest = rest[1:]
				break
			}
			eq := strings.Index(rest, "=")
			if eq < 0 || !validName(rest[:eq]) {
				return "", nil, 0, fmt.Errorf("malformed label in %q", line)
			}
			k := rest[:eq]
			rest = rest[eq+1:]
			if rest == "" || rest[0] != '"' {
				return "", nil, 0, fmt.Errorf("unquoted label value in %q", line)
			}
			rest = rest[1:]
			var v strings.Builder
			for {
				if rest == "" {
					return "", nil, 0, fmt.Errorf("unterminated label value in %q", line)
				}
				c := rest[0]
				if c == '"' {
					rest = rest[1:]
					break
				}
				if c == '\\' && len(rest) >= 2 {
					switch rest[1] {
					case 'n':
						v.WriteByte('\n')
					default:
						v.WriteByte(rest[1])
					}
					rest = rest[2:]
					continue
				}
				v.WriteByte(c)
				rest = rest[1:]
			}
			if _, dup := labels[k]; dup {
				return "", nil, 0, fmt.Errorf("duplicate label %s in %q", k, line)
			}
			labels[k] = v.String()
			rest = strings.TrimLeft(rest, " ")
			if strings.HasPrefix(rest, ",") {
				rest = rest[1:]
			}
		}
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return "", nil, 0, fmt.Errorf("malformed value in %q", line)
	}
	val, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return "", nil, 0, fmt.Errorf("bad value %q: %v", fields[0], err)
	}
	return name, labels, val, nil
}
