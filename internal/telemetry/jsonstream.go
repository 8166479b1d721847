package telemetry

import (
	"bufio"
	"encoding/json"
	"io"
)

// jsonStream is the emitter behind every JSON trace exporter in this
// package: a fixed header, then one marshalled record per line separated by
// ",\n", then a fixed footer on close. Output is buffered, and the first
// error is sticky — later records are dropped and close reports it. When
// the destination is an io.Closer (e.g. an *os.File) the stream owns it and
// close closes it after the footer.
type jsonStream struct {
	w      *bufio.Writer
	closer io.Closer
	footer string
	n      int // records written
	err    error
}

func newJSONStream(w io.Writer, header, footer string) jsonStream {
	s := jsonStream{w: bufio.NewWriter(w), footer: footer}
	if cl, ok := w.(io.Closer); ok {
		s.closer = cl
	}
	s.raw(header)
	return s
}

// record appends one record to the document.
func (s *jsonStream) record(v any) {
	if s.err != nil {
		return
	}
	b, err := json.Marshal(v)
	if err != nil {
		s.err = err
		return
	}
	if s.n > 0 {
		s.raw(",\n")
	}
	s.n++
	if _, err := s.w.Write(b); err != nil && s.err == nil {
		s.err = err
	}
}

func (s *jsonStream) raw(str string) {
	if s.err == nil {
		if _, err := s.w.WriteString(str); err != nil {
			s.err = err
		}
	}
}

// close writes the footer, flushes, and closes an owned destination,
// returning the first error seen over the stream's life.
func (s *jsonStream) close() error {
	s.raw(s.footer)
	if err := s.w.Flush(); err != nil && s.err == nil {
		s.err = err
	}
	if s.closer != nil {
		if err := s.closer.Close(); err != nil && s.err == nil {
			s.err = err
		}
	}
	return s.err
}
