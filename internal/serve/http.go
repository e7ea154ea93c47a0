package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"strings"

	"chapelfreeride/internal/obs"
)

// JobRequest is the POST /v1/jobs wire shape.
type JobRequest struct {
	// Kernel names a registered kernel (kmeans, pca, em, or custom).
	Kernel string `json:"kernel"`
	// Dataset names a registered dataset recipe.
	Dataset string `json:"dataset"`
	// Tenant is the quota/fairness identity; empty maps to "default".
	Tenant string `json:"tenant,omitempty"`
	// Params are the kernel parameters.
	Params Params `json:"params,omitempty"`
	// Wait makes the submission synchronous: the response is the terminal
	// job status. Without it the server answers 202 with the queued status
	// for polling via GET /v1/jobs/{id}.
	Wait bool `json:"wait,omitempty"`
}

// errorBody is every error response's JSON shape.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// maxBodyBytes caps a request body. Real job and dataset bodies are under
// 1 KB; the cap stops a broken or hostile client from making the decoder
// buffer an unbounded body.
const maxBodyBytes = 1 << 20

// decodeBody decodes r's JSON body into v, reading at most maxBodyBytes. It
// answers 413 for an oversized body and 400 for a malformed one, and reports
// whether v was filled.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooLarge):
		writeJSON(w, http.StatusRequestEntityTooLarge,
			errorBody{Error: "request body exceeds " + strconv.FormatInt(tooLarge.Limit, 10) + " bytes"})
	default:
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad request body: " + err.Error()})
	}
	return false
}

// Handler returns the server's HTTP API mounted on top of the standard
// observability mux, so one listener exposes both the job API and
// /metrics, /report, /trace, and the pprof endpoints:
//
//	POST /v1/jobs          submit a job (sync with "wait", else 202 + poll)
//	GET  /v1/jobs/{id}     poll a job
//	GET  /v1/datasets      list registered dataset recipes
//	POST /v1/datasets      register a dataset recipe
//	GET  /v1/kernels       list registered kernel names
//	GET  /healthz          liveness (503 once draining)
func (s *Server) Handler() http.Handler {
	mux := obs.NewMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGetJob)
	mux.HandleFunc("GET /v1/datasets", s.handleListDatasets)
	mux.HandleFunc("POST /v1/datasets", s.handleRegisterDataset)
	mux.HandleFunc("GET /v1/kernels", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, s.Kernels())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		if s.draining.Load() {
			writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "draining"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return mux
}

// handleSubmit admits one job. Admission failures map onto HTTP semantics:
// queue full → 429 with a Retry-After hint, draining → 503, unknown
// kernel/dataset or bad body → 400, oversized body → 413.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if !decodeBody(w, r, &req) {
		return
	}
	j, err := s.Submit(req.Tenant, req.Kernel, req.Dataset, req.Params)
	switch {
	case err == nil:
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(int(s.RetryAfter().Seconds())))
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: err.Error()})
		return
	case errors.Is(err, ErrDraining):
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
		return
	default:
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	if !req.Wait {
		writeJSON(w, http.StatusAccepted, j.status())
		return
	}
	select {
	case <-j.done:
		writeJSON(w, http.StatusOK, j.status())
	case <-r.Context().Done():
		// Client went away mid-wait; the job keeps running and stays
		// pollable by id.
		writeJSON(w, http.StatusRequestTimeout, j.status())
	}
}

// handleGetJob polls one job by id.
func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimSpace(r.PathValue("id"))
	st, ok := s.Job(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown job " + strconv.Quote(id)})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleListDatasets lists the registered recipes.
func (s *Server) handleListDatasets(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Datasets())
}

// handleRegisterDataset registers a recipe. Idempotent for identical
// recipes; conflicting re-registration of a name is 409, an oversized body
// 413.
func (s *Server) handleRegisterDataset(w http.ResponseWriter, r *http.Request) {
	var spec DatasetSpec
	if !decodeBody(w, r, &spec) {
		return
	}
	stored, err := s.RegisterDataset(spec)
	if err != nil {
		code := http.StatusBadRequest
		if strings.Contains(err.Error(), "different recipe") {
			code = http.StatusConflict
		}
		writeJSON(w, code, errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusCreated, stored)
}
