package server

import (
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"hare/internal/live"
	"hare/internal/motif"
)

// maxIngestBody bounds one /v1/ingest request body. At ~20 bytes per text
// edge line this admits multi-million-edge batches while keeping a single
// request from exhausting memory.
const maxIngestBody = 64 << 20

// RegisterLive adds a mutable dataset fed by /v1/ingest and watched by
// /v1/watch. It is a registry entry like any other — query endpoints
// resolve its graph through Registry.Get, per version and exempt from LRU
// eviction — and its version joins the result-cache key, so cached answers
// die naturally the moment an ingest advances the dataset.
func (s *Server) RegisterLive(d *live.Dataset, desc string) error {
	return s.registry.RegisterLive(d, desc)
}

// cacheKey is a request's result-cache key: the canonical Request.Key(),
// plus the dataset version for live datasets — (dataset, version) keying is
// what closes the invalidation gap. The version is read at request arrival:
// a racing ingest can only make a fresher answer land under the old key,
// never a stale answer under the new one.
func (s *Server) cacheKey(req Request) string {
	if e := s.registry.lookup(req.Dataset); e != nil && e.live != nil {
		return fmt.Sprintf("%s|v%d", req.Key(), e.live.Version())
	}
	return req.Key()
}

// ingestResponse is the /v1/ingest JSON envelope.
type ingestResponse struct {
	Dataset   string       `json:"dataset"`
	Accepted  int          `json:"accepted"`
	Version   uint64       `json:"version"`
	Watermark int64        `json:"watermark"`
	Alerts    []live.Alert `json:"alerts,omitempty"`
}

// handleIngest serves POST /v1/ingest?dataset=<name>: the body is a text
// edge list ("u v t" lines, #/% comments), appended as one atomic batch.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	failed := false
	defer func() { s.metrics.observe("ingest", time.Since(start), failed) }()
	if r.Method != http.MethodPost {
		failed = true
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
		return
	}
	d, he := s.requireLive(r.URL.Query().Get("dataset"))
	if he != nil {
		failed = true
		writeError(w, he.status, he.err)
		return
	}
	res, err := d.IngestText(http.MaxBytesReader(w, r.Body, maxIngestBody))
	if err != nil {
		failed = true
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, ingestResponse{
		Dataset:   d.Name(),
		Accepted:  res.Accepted,
		Version:   res.Version,
		Watermark: int64(res.Watermark),
		Alerts:    res.Alerts,
	})
}

// requireLive resolves a dataset parameter to its live dataset, or to the
// error to answer: 400 when it is missing or names an immutable dataset,
// 404 when nothing by that name is registered.
func (s *Server) requireLive(name string) (*live.Dataset, *httpError) {
	if name == "" {
		return nil, &httpError{status: http.StatusBadRequest, err: fmt.Errorf("missing dataset")}
	}
	e := s.registry.lookup(name)
	switch {
	case e == nil:
		return nil, &httpError{status: http.StatusNotFound, err: &UnknownDatasetError{Name: name}}
	case e.live == nil:
		return nil, &httpError{status: http.StatusBadRequest, err: fmt.Errorf("dataset %q is not live", name)}
	}
	return e.live, nil
}

// handleWatch serves GET /v1/watch?dataset=<name>: a Server-Sent Events
// stream of significance alerts. Optional filters: motif=<label> passes
// only that motif's alerts, z=<min> only alerts at or above the given
// z-score (infinite z always passes). The stream opens with a "hello"
// event carrying the dataset's current version, then one "alert" event per
// alert (data: the live.Alert JSON), until the client disconnects.
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	failed := false
	defer func() { s.metrics.observe("watch", time.Since(start), failed) }()
	if r.Method != http.MethodGet {
		failed = true
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
		return
	}
	q := r.URL.Query()
	d, he := s.requireLive(q.Get("dataset"))
	if he != nil {
		failed = true
		writeError(w, he.status, he.err)
		return
	}
	var only string
	if m := q.Get("motif"); m != "" {
		l, err := motif.ParseLabel(m)
		if err != nil {
			failed = true
			writeError(w, http.StatusBadRequest, err)
			return
		}
		only = l.String()
	}
	minZ := math.Inf(-1)
	if v := q.Get("z"); v != "" {
		var err error
		if minZ, err = strconv.ParseFloat(v, 64); err != nil {
			failed = true
			writeError(w, http.StatusBadRequest, fmt.Errorf("z: %v", err))
			return
		}
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		failed = true
		writeError(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported"))
		return
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	ch, cancel := d.Subscribe()
	defer cancel()
	fmt.Fprintf(w, "event: hello\ndata: {\"dataset\":%q,\"version\":%d,\"delta_seconds\":%d}\n\n",
		d.Name(), d.Version(), int64(d.Delta()))
	flusher.Flush()

	for {
		select {
		case <-r.Context().Done():
			return
		case a, ok := <-ch:
			if !ok {
				return
			}
			if only != "" && a.Motif != only {
				continue
			}
			if !math.IsInf(a.Z, 1) && a.Z < minZ {
				continue
			}
			data, err := a.MarshalJSON()
			if err != nil {
				continue // cannot happen: Alert marshals infallibly
			}
			fmt.Fprintf(w, "event: alert\ndata: %s\n\n", data)
			flusher.Flush()
		}
	}
}
