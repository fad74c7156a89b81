package service

import (
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"runtime/debug"
	"strings"
)

// handleBatch serves POST /v1/schedule/batch: many scheduling queries
// in one request, fanned out across the worker pool. Each item runs
// under its own deadline (its timeoutMs, or the server default) with
// partial-failure semantics — the batch answers 200 with per-item
// statuses as long as the envelope itself was well-formed — and the
// results array preserves request order. Items take serveItem, the
// path of a single request (local LRU, then the key's holders' caches,
// then compute), except that they enqueue blocking (the queue
// backpressures a large batch instead of 503ing its tail), and they
// coalesce with concurrent identical work.
//
// With "Accept: application/x-ndjson" the response streams instead:
// one BatchItemResult JSON line per item in completion order, flushed
// as each item finishes (a fast item is delivered while slow siblings
// still run), closed by a summary line {"succeeded":N,"failed":M}.
// Index identifies each result's request item.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	// The body takes /v1/schedule's path: read whole under the limit,
	// then its first JSON value decoded. Items stay raw until their own
	// goroutine decodes them, so an item that is valid JSON but not a
	// valid request answers its own 400.
	body, err := readBody(w, r, s.opts.MaxBodyBytes, s.opts.DefaultTimeout)
	if err != nil {
		writeError(w, http.StatusBadRequest, "decoding batch: %v", err)
		return
	}
	breq, err := decodeFirst[batchWire](body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "decoding batch: %v", err)
		return
	}
	n := len(breq.Items)
	if n == 0 {
		writeError(w, http.StatusBadRequest, "empty batch")
		return
	}
	if n > s.opts.MaxBatchItems {
		writeError(w, http.StatusBadRequest, "batch of %d items exceeds the %d-item limit", n, s.opts.MaxBatchItems)
		return
	}
	s.met.ObserveBatch(n)
	reqID, _ := r.Context().Value(reqIDKey{}).(string)
	results := s.fanOut(r, reqID, breq.Items)
	if wantsNDJSON(r) {
		streamBatch(w, n, results)
		return
	}
	out := BatchResponse{Items: make([]BatchItemResult, n)}
	for range n {
		res := <-results
		out.Items[res.Index] = res
		if res.Status == http.StatusOK {
			out.Succeeded++
		} else {
			out.Failed++
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// batchWire is a batch request body as it arrives.
type batchWire struct {
	Items []json.RawMessage `json:"items"`
}

// fanOut runs every item on its own goroutine and returns the channel
// their results arrive on, in completion order: exactly one per item.
// The channel holds them all, so no item waits on a reader.
func (s *Server) fanOut(r *http.Request, reqID string, items []json.RawMessage) <-chan BatchItemResult {
	results := make(chan BatchItemResult, len(items))
	for i := range items {
		go func(i int) {
			results <- s.runBatchItem(r, reqID, i, items[i])
		}(i)
	}
	return results
}

// wantsNDJSON reports whether the request opted into streamed NDJSON
// results.
func wantsNDJSON(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), "application/x-ndjson")
}

// streamBatch writes the n results of a fan-out as each arrives: one
// JSON line per item, flushed per line, then a summary trailer. The 200
// status commits before the first item finishes, so per-item failures
// are in-band (Status/Error on the item line), exactly as in the
// buffered response body.
func streamBatch(w http.ResponseWriter, n int, results <-chan BatchItemResult) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	enc := json.NewEncoder(w)
	var succeeded, failed int
	for range n {
		res := <-results
		if res.Status == http.StatusOK {
			succeeded++
		} else {
			failed++
		}
		if err := enc.Encode(res); err != nil {
			// The client went away: count the remaining results and
			// stop writing.
			continue
		}
		_ = rc.Flush()
	}
	_ = enc.Encode(struct {
		Succeeded int `json:"succeeded"`
		Failed    int `json:"failed"`
	}{succeeded, failed})
	_ = rc.Flush()
}

// runBatchItem decodes one batch item and serves it through serveItem.
// Items run on their own goroutines outside the instrument middleware,
// so panics are contained here — one poisoned item answers a per-item
// 500 while its siblings complete.
func (s *Server) runBatchItem(r *http.Request, reqID string, i int, item json.RawMessage) (res BatchItemResult) {
	itemID := fmt.Sprintf("%s#%d", reqID, i)
	defer func() {
		if p := recover(); p != nil {
			s.met.ObservePanic()
			log.Printf("service: panic in batch item %s: %v\n%s", itemID, p, debug.Stack())
			res = BatchItemResult{Index: i, Status: http.StatusInternalServerError,
				Error: fmt.Sprintf("internal error (request %s)", itemID)}
		}
	}()
	var req scheduleWire
	if err := decodeInto(item, &req); err != nil {
		return BatchItemResult{Index: i, Status: http.StatusBadRequest, Error: fmt.Sprintf("decoding item: %v", err)}
	}
	res, _ = s.serveItem(r.Context(), itemID, &req, true)
	res.Index = i
	return res
}
