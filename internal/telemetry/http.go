package telemetry

import "net/http"

// StatusRecorder is an http.ResponseWriter wrapper that captures the
// response status code for instrumentation. The zero status means no
// header was written yet; Status() folds that case to 200, mirroring
// net/http's implicit WriteHeader on first Write.
type StatusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

// NewStatusRecorder wraps w.
func NewStatusRecorder(w http.ResponseWriter) *StatusRecorder {
	return &StatusRecorder{ResponseWriter: w}
}

// WriteHeader records the status and forwards to the wrapped writer.
func (s *StatusRecorder) WriteHeader(code int) {
	if s.status == 0 {
		s.status = code
	}
	s.ResponseWriter.WriteHeader(code)
}

// Write forwards to the wrapped writer, recording the implicit 200 when
// no explicit WriteHeader preceded it.
func (s *StatusRecorder) Write(p []byte) (int, error) {
	if s.status == 0 {
		s.status = http.StatusOK
	}
	n, err := s.ResponseWriter.Write(p)
	s.bytes += int64(n)
	return n, err
}

// Bytes returns the number of body bytes written so far.
func (s *StatusRecorder) Bytes() int64 { return s.bytes }

// Flush forwards to the wrapped writer when it supports flushing, so
// streaming handlers (NDJSON replay) keep their per-frame flushes
// through the recorder.
func (s *StatusRecorder) Flush() {
	if f, ok := s.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Status returns the recorded status code (200 if the handler never set
// one explicitly).
func (s *StatusRecorder) Status() int {
	if s.status == 0 {
		return http.StatusOK
	}
	return s.status
}
