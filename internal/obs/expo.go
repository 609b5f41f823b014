package obs

import (
	"bufio"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// TextContentType is the Content-Type for the Prometheus text exposition
// format served by Handler.
const TextContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus renders every family in the Prometheus text exposition
// format (version 0.0.4). Families are sorted by name and series by label
// values, so the output is deterministic and can be pinned by a golden test.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)

	r.mu.RLock()
	names := make([]string, 0, len(r.fams))
	for name := range r.fams {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, name := range names {
		fams[i] = r.fams[name]
	}
	r.mu.RUnlock()

	for _, f := range fams {
		writeFamily(bw, f)
	}
	return bw.Flush()
}

// Handler returns an http.Handler serving the registry in Prometheus text
// format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", TextContentType)
		r.WritePrometheus(w)
	})
}

func writeFamily(w *bufio.Writer, f *family) {
	if f.help != "" {
		w.WriteString("# HELP ")
		w.WriteString(f.name)
		w.WriteByte(' ')
		w.WriteString(escapeHelp(f.help))
		w.WriteByte('\n')
	}
	w.WriteString("# TYPE ")
	w.WriteString(f.name)
	w.WriteByte(' ')
	w.WriteString(f.typ.String())
	w.WriteByte('\n')

	f.mu.RLock()
	if f.fn != nil {
		fn := f.fn
		f.mu.RUnlock()
		writeSample(w, f.name, nil, nil, fn())
		return
	}
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	sers := make([]*series, len(keys))
	fns := make([]func() float64, len(keys))
	for i, k := range keys {
		sers[i] = f.series[k]
		fns[i] = sers[i].fn
	}
	f.mu.RUnlock()

	for i, s := range sers {
		switch {
		case fns[i] != nil:
			writeSample(w, f.name, f.labels, s.labelVals, fns[i]())
		case f.typ == TypeHistogram:
			writeHistogram(w, f, s)
		default:
			writeSample(w, f.name, f.labels, s.labelVals, s.val.Load())
		}
	}
}

// writeHistogram emits cumulative le buckets, the implicit +Inf bucket, and
// the _sum/_count samples for one series.
func writeHistogram(w *bufio.Writer, f *family, s *series) {
	d := s.hist
	names := append(append([]string(nil), f.labels...), "le")
	var cum uint64
	for i, bound := range d.bounds {
		cum += d.counts[i].Load()
		vals := append(append([]string(nil), s.labelVals...), formatFloat(bound))
		writeSampleU(w, f.name+"_bucket", names, vals, cum)
	}
	cum += d.counts[len(d.bounds)].Load()
	vals := append(append([]string(nil), s.labelVals...), "+Inf")
	writeSampleU(w, f.name+"_bucket", names, vals, cum)
	writeSample(w, f.name+"_sum", f.labels, s.labelVals, d.sum.Load())
	writeSampleU(w, f.name+"_count", f.labels, s.labelVals, d.count.Load())
}

func writeSample(w *bufio.Writer, name string, labelNames, labelVals []string, v float64) {
	w.WriteString(name)
	writeLabels(w, labelNames, labelVals)
	w.WriteByte(' ')
	w.WriteString(formatFloat(v))
	w.WriteByte('\n')
}

func writeSampleU(w *bufio.Writer, name string, labelNames, labelVals []string, v uint64) {
	w.WriteString(name)
	writeLabels(w, labelNames, labelVals)
	w.WriteByte(' ')
	w.WriteString(strconv.FormatUint(v, 10))
	w.WriteByte('\n')
}

func writeLabels(w *bufio.Writer, names, vals []string) {
	if len(names) == 0 {
		return
	}
	w.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			w.WriteByte(',')
		}
		w.WriteString(n)
		w.WriteString(`="`)
		w.WriteString(escapeLabel(vals[i]))
		w.WriteByte('"')
	}
	w.WriteByte('}')
}

// formatFloat renders a float the way Prometheus expects: shortest exact
// representation, +Inf/-Inf/NaN spelled out.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	return strings.NewReplacer(`\`, `\\`, "\n", `\n`).Replace(s)
}

func escapeLabel(s string) string {
	return strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`).Replace(s)
}
