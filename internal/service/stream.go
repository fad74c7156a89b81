package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime/debug"
	"time"

	"dagsched/internal/stream"
)

// handleStream serves POST /v1/schedule/stream: an NDJSON event log in,
// an NDJSON delta log out. The first line must be a config event naming
// the algorithm and platform; every following line is an addTask,
// addEdge, advance, flush or seal event. Each flush (explicit,
// batch-size or seal) re-plans incrementally and answers with one delta
// line, flushed immediately, so a client ingesting an open-ended task
// arrival process observes a continuously-updated schedule.
//
// The session runs on one worker-pool slot for its whole lifetime —
// streams compete with one-shot requests for the same bounded compute —
// and is admitted through the same overload controls: a full queue
// answers 503, and a low-priority config is shed at the watermark. An
// invalid event before the first delta answers 400; after streaming has
// started the error arrives as a terminal in-band {"error": ...} line.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	body := http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	br := bufio.NewReaderSize(body, 64*1024)

	// The config line is parsed on the handler goroutine so every
	// malformed session is a plain 400 before a worker is occupied.
	cfgEv, err := readConfigEvent(br)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	cfg, low, timeout, err := s.streamConfig(cfgEv)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	eng, err := stream.NewEngine(cfg)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if s.shouldShed(low) {
		s.met.ObserveShed()
		status, msg := s.statusFor(errShed, timeout)
		writeError(w, status, "%s", msg)
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	// Interleaved body reads and response writes need full-duplex HTTP/1
	// (by default the first write discards the unread body). Where the
	// transport cannot provide it, the remaining events are slurped
	// up-front — bounded by MaxBodyBytes — and only the deltas stream.
	rc := http.NewResponseController(w)
	if err := rc.EnableFullDuplex(); err != nil {
		rest, rerr := io.ReadAll(br)
		if rerr != nil {
			writeError(w, http.StatusBadRequest, "reading events: %v", rerr)
			return
		}
		br = bufio.NewReader(bytes.NewReader(rest))
	}
	// The context deadline cannot interrupt a blocked body read, so the
	// connection deadlines enforce the timeout at the socket (best
	// effort; a failed set falls back to client disconnects).
	deadline := time.Now().Add(timeout)
	_ = rc.SetReadDeadline(deadline)
	_ = rc.SetWriteDeadline(deadline)

	reqID, _ := r.Context().Value(reqIDKey{}).(string)
	sess := &streamSession{w: w, rc: rc, eng: eng, br: br, ctx: ctx}
	j := &job{ctx: ctx, reqID: reqID, done: make(chan jobResult, 1)}
	j.exec = func() (res jobResult) {
		defer func() {
			if p := recover(); p != nil {
				s.met.ObservePanic()
				log.Printf("service: panic in stream session (request %s): %v\n%s", reqID, p, debug.Stack())
				res = jobResult{err: fmt.Errorf("internal error: stream session panic (request %s)", reqID)}
			}
		}()
		return jobResult{err: sess.run()}
	}
	select {
	case s.jobs <- j:
	default:
		status, msg := s.statusFor(errQueueFull, timeout)
		writeError(w, status, "%s", msg)
		return
	}
	res := <-j.done
	s.met.ObserveStream(int64(eng.Events()), sess.deltas, eng.Sealed())
	if res.err == nil {
		return
	}
	if !sess.wrote {
		switch {
		case errors.Is(res.err, context.DeadlineExceeded):
			writeError(w, http.StatusGatewayTimeout, "deadline exceeded after %s: %v", timeout, res.err)
		case errors.Is(res.err, context.Canceled):
			writeError(w, http.StatusServiceUnavailable, "request canceled: %v", res.err)
		default:
			writeError(w, http.StatusBadRequest, "%v", res.err)
		}
		return
	}
	// Streaming already committed the 200; the failure goes in-band as
	// the terminal line.
	_ = json.NewEncoder(w).Encode(errorJSON{Error: res.err.Error()})
	_ = rc.Flush()
}

// readEventLine returns the next non-blank NDJSON line (trimmed), or
// io.EOF at the clean end of the stream. Lines beyond the per-event
// bound are rejected.
func readEventLine(br *bufio.Reader) ([]byte, error) {
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > stream.MaxEventBytes {
			return nil, fmt.Errorf("event line exceeds %d bytes", stream.MaxEventBytes)
		}
		if b := bytes.TrimSpace(line); len(b) > 0 {
			return b, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// readConfigEvent consumes the first non-blank NDJSON line, which must
// be a config event.
func readConfigEvent(br *bufio.Reader) (stream.Event, error) {
	b, err := readEventLine(br)
	if errors.Is(err, io.EOF) {
		return stream.Event{}, fmt.Errorf("empty stream: a config event must open the session")
	}
	if err != nil {
		return stream.Event{}, fmt.Errorf("reading config event: %w", err)
	}
	ev, err := stream.DecodeEvent(b)
	if err != nil {
		return stream.Event{}, err
	}
	if ev.Op != stream.OpConfig {
		return stream.Event{}, fmt.Errorf("first event must be %q, got %q", stream.OpConfig, ev.Op)
	}
	return ev, nil
}

// streamConfig validates a config event into an engine config, the
// request's shedding class and its session timeout. The platform is
// the bare-graph request path's (unitPlatform).
func (s *Server) streamConfig(ev stream.Event) (stream.Config, bool, time.Duration, error) {
	if ev.Processors < 0 || ev.Processors > maxProcessors {
		return stream.Config{}, false, 0, fmt.Errorf("processors %d out of [0,%d]", ev.Processors, maxProcessors)
	}
	sys, err := unitPlatform(ev.Processors, ev.Latency, ev.TimePerUnit)
	if err != nil {
		return stream.Config{}, false, 0, err
	}
	low, err := lowPriority(ev.Priority)
	if err != nil {
		return stream.Config{}, false, 0, err
	}
	cfg := stream.Config{
		Algorithm:        ev.Algorithm,
		Sys:              sys,
		BatchSize:        ev.BatchSize,
		FinalAssignments: ev.FinalAssignments,
	}
	return cfg, low, s.timeoutFor(ev.TimeoutMs), nil
}

// streamSession is the per-session state shared between the worker
// (which runs the event loop) and the handler (which maps its outcome
// to a status).
type streamSession struct {
	w   http.ResponseWriter
	rc  *http.ResponseController
	eng *stream.Engine
	br  *bufio.Reader
	ctx context.Context

	wrote  bool
	deltas int64
}

// run drains the event log through the engine, emitting one delta line
// per re-plan. It returns nil exactly when the stream sealed cleanly.
func (ss *streamSession) run() error {
	event := 1 // the config line was consumed by the handler
	for {
		if err := ss.ctx.Err(); err != nil {
			return err
		}
		b, err := readEventLine(ss.br)
		if errors.Is(err, io.EOF) {
			return fmt.Errorf("stream ended without a seal event")
		}
		if err != nil {
			if cerr := ss.ctx.Err(); cerr != nil {
				return cerr
			}
			return fmt.Errorf("reading events: %w", err)
		}
		event++
		ev, err := stream.DecodeEvent(b)
		if err != nil {
			return fmt.Errorf("event %d: %w", event, err)
		}
		d, err := ss.eng.Apply(ev)
		if err != nil {
			return fmt.Errorf("event %d: %w", event, err)
		}
		if d != nil {
			if err := ss.emit(d); err != nil {
				return err
			}
		}
		if ss.eng.Sealed() {
			return nil
		}
	}
}

// emit writes one delta line and flushes it to the client.
func (ss *streamSession) emit(d *stream.Delta) error {
	if !ss.wrote {
		ss.w.Header().Set("Content-Type", "application/x-ndjson")
		ss.w.WriteHeader(http.StatusOK)
		ss.wrote = true
	}
	if err := json.NewEncoder(ss.w).Encode(d); err != nil {
		return fmt.Errorf("writing delta: %w", err)
	}
	ss.deltas++
	_ = ss.rc.Flush()
	return nil
}
