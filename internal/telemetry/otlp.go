package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
)

// OTLPWriter exports span trees as a single OTLP-style (OpenTelemetry
// protocol, JSON file encoding) document: resourceSpans → scopeSpans →
// spans, with traceId derived from the reference index and explicit
// parentSpanId links. Cycle counts are carried in the *TimeUnixNano fields
// (one cycle = one nanosecond), encoded as decimal strings per the OTLP
// JSON mapping, so standard trace tooling renders the trees unmodified.
type OTLPWriter struct {
	out    jsonStream
	spanID uint64
}

// NewOTLPWriter creates an exporter writing one OTLP JSON document to w. If
// w is also an io.Closer (e.g. an *os.File), Close closes it after the
// footer.
func NewOTLPWriter(w io.Writer) *OTLPWriter {
	return NewOTLPWriterService(w, "vrsim")
}

// NewOTLPWriterService is NewOTLPWriter with an explicit OTLP resource
// service name (the job daemon exports as "vrsimd" so its traces are
// distinguishable from in-process vrsim runs).
func NewOTLPWriterService(w io.Writer, service string) *OTLPWriter {
	svc, _ := json.Marshal(service) // a string always marshals
	header := `{"resourceSpans":[{"resource":{"attributes":[` +
		`{"key":"service.name","value":{"stringValue":` + string(svc) + `}}]},` +
		`"scopeSpans":[{"scope":{"name":"repro/internal/telemetry"},"spans":[`
	return &OTLPWriter{out: newJSONStream(w, header, "]}]}]}\n")}
}

// otlpSpan is one span record in the OTLP JSON file encoding.
type otlpSpan struct {
	TraceID      string   `json:"traceId"`
	SpanID       string   `json:"spanId"`
	ParentSpanID string   `json:"parentSpanId,omitempty"`
	Name         string   `json:"name"`
	Kind         int      `json:"kind"`
	Start        string   `json:"startTimeUnixNano"`
	End          string   `json:"endTimeUnixNano"`
	Attributes   []otlpKV `json:"attributes,omitempty"`
}

type otlpKV struct {
	Key   string   `json:"key"`
	Value otlpAnyV `json:"value"`
}

type otlpAnyV struct {
	StringValue string `json:"stringValue,omitempty"`
	IntValue    string `json:"intValue,omitempty"`
}

func kvInt(key string, v uint64) otlpKV {
	return otlpKV{Key: key, Value: otlpAnyV{IntValue: fmt.Sprintf("%d", v)}}
}

func kvStr(key, v string) otlpKV {
	return otlpKV{Key: key, Value: otlpAnyV{StringValue: v}}
}

// ExportSpan implements SpanExporter: the tree is flattened parents-first,
// all nodes sharing a traceId derived from the root's reference index.
func (o *OTLPWriter) ExportSpan(root *Span) error {
	return o.ExportSpanTrace(fmt.Sprintf("%032x", root.Ref), root)
}

// ExportSpanTrace exports the tree under an explicit 32-hex-digit traceId.
// The job server uses it to stitch daemon-side lifecycle spans and in-sim
// reference spans into one trace per job (traceId derived from the job ID).
func (o *OTLPWriter) ExportSpanTrace(traceID string, root *Span) error {
	ids := map[*Span]string{}
	root.Walk(func(parent, sp *Span) {
		o.spanID++
		id := fmt.Sprintf("%016x", o.spanID)
		ids[sp] = id
		rec := otlpSpan{
			TraceID: traceID,
			SpanID:  id,
			Name:    sp.Name,
			Kind:    1, // SPAN_KIND_INTERNAL
			Start:   fmt.Sprintf("%d", sp.Start),
			End:     fmt.Sprintf("%d", sp.End),
			Attributes: []otlpKV{
				kvInt("vrsim.cpu", uint64(sp.CPU)),
				kvInt("vrsim.ref", sp.Ref),
			},
		}
		if parent != nil {
			rec.ParentSpanID = ids[parent]
		}
		if sp.Mechanism != "" {
			rec.Attributes = append(rec.Attributes, kvStr("vrsim.mechanism", sp.Mechanism))
		}
		if sp.VA != 0 {
			rec.Attributes = append(rec.Attributes, kvStr("vrsim.va", fmt.Sprintf("%#x", sp.VA)))
		}
		if sp.PA != 0 {
			rec.Attributes = append(rec.Attributes, kvStr("vrsim.pa", fmt.Sprintf("%#x", sp.PA)))
		}
		o.out.record(rec)
	})
	return o.out.err
}

// Spans returns the number of span records written.
func (o *OTLPWriter) Spans() int { return o.out.n }

// Close writes the footer and flushes (closing the underlying writer when
// it is closable).
func (o *OTLPWriter) Close() error { return o.out.close() }
