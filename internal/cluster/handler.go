package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"st4ml/internal/serve"
)

// The router speaks the same client protocol as a single stserved daemon —
// POST /query with the same body and response shape — so stquery and every
// other client work unchanged whether they point at one node or a fleet.

// errRouterDraining is the refusal a draining router answers new work with.
var errRouterDraining = errors.New("cluster: draining")

// Handler returns the router's HTTP routes.
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", r.handleQuery)
	mux.HandleFunc("GET /datasets", r.handleDatasets)
	mux.HandleFunc("GET /metrics", r.handleMetrics)
	mux.HandleFunc("GET /healthz", r.handleHealthz)
	mux.HandleFunc("GET /readyz", r.handleReadyz)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(body)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, struct {
		Error string `json:"error"`
	}{err.Error()})
}

func (r *Router) handleQuery(w http.ResponseWriter, req *http.Request) {
	start := time.Now()
	if r.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, errRouterDraining)
		return
	}
	var qreq serve.QueryRequest
	if status, err := serve.DecodeJSON(w, req, &qreq); err != nil {
		writeError(w, status, err)
		return
	}
	if req.URL.Query().Get("explain") == "1" {
		qreq.Explain = true
	}
	r.queries.Add(1)
	if qreq.Approx {
		approx, cache, explain, status, err := r.QueryApprox(req.Context(), qreq)
		if err != nil {
			if status >= http.StatusInternalServerError && status != http.StatusGatewayTimeout {
				r.queryErrors.Add(1)
			}
			writeError(w, status, err)
			return
		}
		writeJSON(w, http.StatusOK, serve.QueryResponse{
			Dataset:   qreq.Dataset,
			Cache:     cache,
			ElapsedMS: float64(time.Since(start).Microseconds()) / 1000,
			Explain:   explain,
			Approx:    approx,
		})
		return
	}
	res, cache, explain, status, err := r.Query(req.Context(), qreq)
	if err != nil {
		if status >= http.StatusInternalServerError && status != http.StatusGatewayTimeout {
			r.queryErrors.Add(1)
		}
		writeError(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, serve.QueryResponse{
		Dataset:     qreq.Dataset,
		Cache:       cache,
		ElapsedMS:   float64(time.Since(start).Microseconds()) / 1000,
		Explain:     explain,
		QueryResult: res,
	})
}

func (r *Router) handleDatasets(w http.ResponseWriter, req *http.Request) {
	writeJSON(w, http.StatusOK, r.catalog.List())
}

// MetricsResponse is the router's GET /metrics body.
type MetricsResponse struct {
	Router RouterStats      `json:"router"`
	Cache  serve.CacheStats `json:"cache"`
	Shards []ShardStatus    `json:"shards"`
}

func (r *Router) handleMetrics(w http.ResponseWriter, req *http.Request) {
	writeJSON(w, http.StatusOK, MetricsResponse{
		Router: r.Stats(),
		Cache:  r.cache.Stats(),
		Shards: r.ShardStatuses(),
	})
}

// handleHealthz is the liveness probe: green as long as the process can
// answer HTTP at all, draining included.
func (r *Router) handleHealthz(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz is the readiness probe: 503 while draining.
func (r *Router) handleReadyz(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if r.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ready")
}
