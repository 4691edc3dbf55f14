package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/curve"
	"repro/internal/engine"
	"repro/internal/scalar"
	"repro/internal/schnorrq"
)

// The /v1 JSON API. Binary fields (scalars, points, seeds, messages,
// signatures) are lowercase hex. Scalars must be canonical (< N),
// points must decode to curve points; anything structurally invalid is
// refused with 400 before a shard is chosen, so malformed input never
// occupies an engine queue slot.

// ScalarMultRequest computes [scalar]base ([scalar]G when base is
// omitted).
type ScalarMultRequest struct {
	Scalar string `json:"scalar"`
	Base   string `json:"base,omitempty"`
}

// ScalarMultResponse carries the compressed result point and the
// provenance of the run that produced it.
type ScalarMultResponse struct {
	Point    string `json:"point"`
	Backend  string `json:"backend"`
	Attempts int    `json:"attempts"`
	Shard    int    `json:"shard"`
}

// SignRequest signs msg with the key derived from seed (SchnorrQ is
// deterministic: same seed and msg, same signature).
type SignRequest struct {
	Seed string `json:"seed"`
	Msg  string `json:"msg"`
}

// SignResponse carries the signature and the derived public key.
type SignResponse struct {
	Sig   string `json:"sig"`
	Pub   string `json:"pub"`
	Shard int    `json:"shard"`
}

// VerifyRequest checks sig over msg against pub. It doubles as one
// batch item.
type VerifyRequest struct {
	Pub string `json:"pub"`
	Msg string `json:"msg"`
	Sig string `json:"sig"`
}

// VerifyResponse is the verdict. Valid=false with status 200 means the
// request was well-formed and the signature is wrong.
type VerifyResponse struct {
	Valid bool `json:"valid"`
	Shard int  `json:"shard"`
}

// BatchVerifyRequest verifies all items together with one random
// linear combination (all-or-nothing verdict).
type BatchVerifyRequest struct {
	Items []VerifyRequest `json:"items"`
}

// BatchVerifyResponse is the batch verdict.
type BatchVerifyResponse struct {
	Valid bool `json:"valid"`
	Items int  `json:"items"`
	Shard int  `json:"shard"`
}

// ErrorResponse is the body of every non-200 API answer.
type ErrorResponse struct {
	Error string `json:"error"`
}

// Weights charged against a shard's engine queue capacity at
// admission: the worst-case number of engine submissions the request
// can have outstanding. Sign costs one scalar multiplication, verify
// two (sequential, but charged fully as the conservative bound), and a
// batch of n fans out 2n+1 concurrent terms.
const (
	weightScalarMult = 1
	weightSign       = 1
	weightVerify     = 2
)

func weightBatch(n int) int { return 2*n + 1 }

// maxBodyBytes bounds a request body.
const maxBodyBytes = 1 << 20

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, ErrorResponse{Error: msg})
}

// badInput tags a validation failure (HTTP 400).
type badInput struct{ msg string }

func (e badInput) Error() string { return e.msg }

func badInputf(format string, args ...any) error {
	return badInput{fmt.Sprintf(format, args...)}
}

func parseHex(field, s string, want int) ([]byte, error) {
	b, err := hex.DecodeString(s)
	if err != nil {
		return nil, badInputf("%s: invalid hex", field)
	}
	if want >= 0 && len(b) != want {
		return nil, badInputf("%s: %d bytes, want %d", field, len(b), want)
	}
	return b, nil
}

// parseScalarField decodes a canonical scalar: 32 bytes, value < N.
func parseScalarField(field, s string) (scalar.Scalar, error) {
	b, err := parseHex(field, s, scalar.Size)
	if err != nil {
		return scalar.Scalar{}, err
	}
	k, err := scalar.FromBytes(b)
	if err != nil {
		return scalar.Scalar{}, badInputf("%s: %v", field, err)
	}
	if k.Big().Cmp(scalar.Order()) >= 0 {
		return scalar.Scalar{}, badInputf("%s: non-canonical (>= group order)", field)
	}
	return k, nil
}

func parsePointField(field, s string) (curve.Point, error) {
	b, err := parseHex(field, s, curve.Size)
	if err != nil {
		return curve.Point{}, err
	}
	p, err := curve.FromBytes(b)
	if err != nil {
		return curve.Point{}, badInputf("%s: %v", field, err)
	}
	return p, nil
}

// op is one parsed, validated API operation ready to dispatch: the
// admission weight and the execution against the chosen shard's engine.
type op struct {
	weight int
	run    func(ctx context.Context, sh *shard) (any, error)
}

// handleAPI is the shared request pipeline: method check, tenant
// admission, body parse + validation, weighted shard admission, hold
// gate (tests), dispatch, release, response.
func (s *Server) handleAPI(w http.ResponseWriter, r *http.Request, parse func(body []byte) (op, error)) {
	s.requests.Inc()
	t0 := time.Now()
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if !s.checkTenant(w, r) {
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		s.badRequest.Inc()
		writeError(w, http.StatusBadRequest, "body: "+err.Error())
		return
	}
	o, err := parse(body)
	if err != nil {
		s.badRequest.Inc()
		var bi badInput
		if errors.As(err, &bi) {
			writeError(w, http.StatusBadRequest, bi.msg)
		} else {
			writeError(w, http.StatusBadRequest, err.Error())
		}
		return
	}
	sh, err := s.admit(o.weight)
	if err != nil {
		if errors.Is(err, ErrDraining) {
			s.drainRef.Inc()
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, "draining")
			return
		}
		s.shed.Inc()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "overloaded, retry later")
		return
	}
	s.mu.Lock()
	gate := s.holdGate
	s.mu.Unlock()
	if gate != nil {
		// The gate is a test hook, but the cancellation path through it is
		// production semantics: a client that disconnects while admitted
		// frees its weight immediately instead of holding capacity.
		select {
		case <-gate:
		case <-r.Context().Done():
			s.release(sh, o.weight)
			s.canceledC.Inc()
			writeError(w, http.StatusServiceUnavailable, "request canceled")
			return
		}
	}
	// dispatch owns the admission charge from here: the charge is
	// released when each runner's engine submission returns (promptly on
	// client disconnect — the request context cancels the engine job).
	resp, winner, err := s.dispatch(r.Context(), sh, o)
	if err != nil {
		s.writeDispatchError(w, err)
		return
	}
	winner.served.Inc()
	s.okC.Inc()
	s.latency.Observe(time.Since(t0).Seconds())
	writeJSON(w, http.StatusOK, resp)
}

// writeDispatchError maps a backend failure after admission. Engine
// backpressure should be unreachable (admission sheds first); it is
// counted separately so the invariant is observable.
func (s *Server) writeDispatchError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, engine.ErrQueueFull):
		s.engineFull.Inc()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "engine queue full")
	case errors.Is(err, engine.ErrClosed):
		s.drainRef.Inc()
		writeError(w, http.StatusServiceUnavailable, "draining")
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// The client left; the write races the closed connection and is
		// best-effort.
		s.canceledC.Inc()
		writeError(w, http.StatusServiceUnavailable, "request canceled")
	default:
		s.backendErr.Inc()
		writeError(w, http.StatusInternalServerError, err.Error())
	}
}

func (s *Server) routes(mux *http.ServeMux) {
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/v1/scalarmult", func(w http.ResponseWriter, r *http.Request) {
		s.handleAPI(w, r, s.parseScalarMult)
	})
	mux.HandleFunc("/v1/sign", func(w http.ResponseWriter, r *http.Request) {
		s.handleAPI(w, r, s.parseSign)
	})
	mux.HandleFunc("/v1/verify", func(w http.ResponseWriter, r *http.Request) {
		s.handleAPI(w, r, s.parseVerify)
	})
	mux.HandleFunc("/v1/batch/verify", func(w http.ResponseWriter, r *http.Request) {
		s.handleAPI(w, r, s.parseBatchVerify)
	})
	mux.HandleFunc("/v1/", func(w http.ResponseWriter, r *http.Request) {
		s.notFound.Inc()
		writeError(w, http.StatusNotFound, "unknown endpoint")
	})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining, inflight := s.draining, s.inflight
	scores := make([]float64, len(s.shards))
	for i, sh := range s.shards {
		if sh.ejected {
			scores[i] = -1 // out of rotation (being rebuilt)
		} else {
			scores[i] = sh.score
		}
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":       "ok",
		"draining":     draining,
		"shards":       len(s.shards),
		"inflight":     inflight,
		"shard_health": scores,
	})
}

func (s *Server) parseScalarMult(body []byte) (op, error) {
	var req ScalarMultRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return op{}, badInputf("json: %v", err)
	}
	k, err := parseScalarField("scalar", req.Scalar)
	if err != nil {
		return op{}, err
	}
	base := curve.Affine{} // zero value selects the generator
	if req.Base != "" {
		p, err := parsePointField("base", req.Base)
		if err != nil {
			return op{}, err
		}
		base = p.Affine()
	}
	return op{weight: weightScalarMult, run: func(ctx context.Context, sh *shard) (any, error) {
		res, err := sh.engine().Submit(ctx, engine.Request{K: k, Base: base})
		if err != nil {
			return nil, err
		}
		enc := curve.FromAffine(res.Point).Bytes()
		return ScalarMultResponse{
			Point:    hex.EncodeToString(enc[:]),
			Backend:  res.Backend.String(),
			Attempts: res.Attempts,
			Shard:    sh.id,
		}, nil
	}}, nil
}

func (s *Server) parseSign(body []byte) (op, error) {
	var req SignRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return op{}, badInputf("json: %v", err)
	}
	seed, err := parseHex("seed", req.Seed, schnorrq.SeedSize)
	if err != nil {
		return op{}, err
	}
	msg, err := parseHex("msg", req.Msg, -1)
	if err != nil {
		return op{}, err
	}
	var seed32 [schnorrq.SeedSize]byte
	copy(seed32[:], seed)
	key, err := schnorrq.NewKeyFromSeed(seed32)
	if err != nil {
		return op{}, badInputf("seed: %v", err)
	}
	return op{weight: weightSign, run: func(ctx context.Context, sh *shard) (any, error) {
		sig, err := key.SignWith(ctx, sh.engine(), msg)
		if err != nil {
			return nil, err
		}
		pub := key.Public.Bytes()
		return SignResponse{
			Sig:   hex.EncodeToString(sig[:]),
			Pub:   hex.EncodeToString(pub[:]),
			Shard: sh.id,
		}, nil
	}}, nil
}

// parseVerifyItem validates the structure of one verify request: the
// public key must decode to a curve point and the signature must have
// the exact encoded length. Cryptographic invalidity (wrong signature,
// non-canonical s) stays a 200 {"valid": false} verdict.
func parseVerifyItem(field string, req VerifyRequest) (*schnorrq.PublicKey, []byte, []byte, error) {
	pubBytes, err := parseHex(field+"pub", req.Pub, curve.Size)
	if err != nil {
		return nil, nil, nil, err
	}
	pub, err := schnorrq.PublicKeyFromBytes(pubBytes)
	if err != nil {
		return nil, nil, nil, badInputf("%spub: %v", field, err)
	}
	msg, err := parseHex(field+"msg", req.Msg, -1)
	if err != nil {
		return nil, nil, nil, err
	}
	sig, err := parseHex(field+"sig", req.Sig, schnorrq.SignatureSize)
	if err != nil {
		return nil, nil, nil, err
	}
	return pub, msg, sig, nil
}

func (s *Server) parseVerify(body []byte) (op, error) {
	var req VerifyRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return op{}, badInputf("json: %v", err)
	}
	pub, msg, sig, err := parseVerifyItem("", req)
	if err != nil {
		return op{}, err
	}
	return op{weight: weightVerify, run: func(ctx context.Context, sh *shard) (any, error) {
		valid, err := schnorrq.VerifyWith(ctx, sh.engine(), pub, msg, sig)
		if err != nil {
			return nil, err
		}
		return VerifyResponse{Valid: valid, Shard: sh.id}, nil
	}}, nil
}

func (s *Server) parseBatchVerify(body []byte) (op, error) {
	var req BatchVerifyRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return op{}, badInputf("json: %v", err)
	}
	if len(req.Items) == 0 {
		return op{}, badInputf("items: empty batch")
	}
	if len(req.Items) > s.opts.MaxBatch {
		return op{}, badInputf("items: %d exceeds max batch size %d", len(req.Items), s.opts.MaxBatch)
	}
	items := make([]schnorrq.BatchItem, len(req.Items))
	for i, it := range req.Items {
		pub, msg, sig, err := parseVerifyItem(fmt.Sprintf("items[%d].", i), it)
		if err != nil {
			return op{}, err
		}
		items[i] = schnorrq.BatchItem{Pub: pub, Msg: msg, Sig: sig}
	}
	n := len(items)
	return op{weight: weightBatch(n), run: func(ctx context.Context, sh *shard) (any, error) {
		valid, err := schnorrq.BatchVerifyWith(ctx, rand.Reader, sh.engine(), items)
		if err != nil {
			return nil, err
		}
		return BatchVerifyResponse{Valid: valid, Items: n, Shard: sh.id}, nil
	}}, nil
}
