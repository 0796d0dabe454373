package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	terrainhsr "terrainhsr"
	"terrainhsr/internal/obs"
	"terrainhsr/internal/workload"
)

// Options is the observability configuration of one replica handler. The
// zero value serves without tracing (/tracez answers 404), logs through
// slog.Default and reports no slow queries. Stage histograms need no
// option: the query server always records them, and /metricsz renders its
// registry (Server.Metrics; the same series are ServerStats.Stages on
// /statsz).
type Options struct {
	// Tracer samples queries for /tracez. Requests arriving with the
	// obs.TraceHeader header are always traced (the router made the
	// sampling decision); sampled responses echo the trace ID in the same
	// header and return their spans in obs.SpansHeader for the router to
	// graft. Nil disables tracing.
	Tracer *obs.Tracer
	// Logger receives the handler's structured logs (errors, slow queries,
	// per-query debug lines). Nil selects slog.Default().
	Logger *slog.Logger
	// SlowQuery, when positive, logs any query at least this slow at Warn
	// level with its plan explanation and cost ledger attached.
	SlowQuery time.Duration
}

// New returns the HTTP handler of one serving replica: the service
// endpoints wired to the given query server, plus /metricsz (the server's
// stage histograms) and /tracez (answered by Options.Tracer). Tracing and
// metrics never change answers: solve bytes are identical with tracing on
// or off.
func New(srv *terrainhsr.Server, opt Options) http.Handler {
	if opt.Logger == nil {
		opt.Logger = slog.Default()
	}
	h := &handler{srv: srv, opt: opt}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", h.healthz)
	mux.HandleFunc("/statsz", h.statsz)
	mux.HandleFunc("/terrains", h.terrains)
	mux.HandleFunc("/viewshed", h.viewshed)
	mux.HandleFunc("/flyover", h.flyover)
	// A nil Tracer serves 404 from its own ServeHTTP, so the route exists
	// unconditionally and reports tracing as disabled.
	mux.Handle("/tracez", opt.Tracer)
	mux.Handle("/metricsz", srv.Metrics())
	return mux
}

// BuildTerrain parses one -terrain spec (workload.ParseSpec's
// comma-separated key=value syntax) and generates the terrain. Shared by
// hsrserved (to register terrains) and hsrload (which regenerates the
// same terrains locally via the same parser and derives eye points from
// them).
func BuildTerrain(spec string) (string, *terrainhsr.Terrain, error) {
	id, p, err := workload.ParseSpec(spec)
	if err != nil {
		return "", nil, err
	}
	tr, err := terrainhsr.Generate(terrainhsr.GenParams{
		Kind:        string(p.Kind),
		Rows:        p.Rows,
		Cols:        p.Cols,
		Seed:        p.Seed,
		Amplitude:   p.Amplitude,
		RidgeHeight: p.RidgeHeight,
		Slope:       p.Slope,
		Shear:       p.Shear,
	})
	return id, tr, err
}

// ParseStoreSpec parses one -store spec: id=...,path=...
func ParseStoreSpec(spec string) (id, path string, err error) {
	for _, kv := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return "", "", fmt.Errorf("malformed entry %q (want key=value)", kv)
		}
		switch k {
		case "id":
			id = v
		case "path":
			path = v
		default:
			return "", "", fmt.Errorf("unknown key %q", k)
		}
	}
	if id == "" || path == "" {
		return "", "", fmt.Errorf("spec needs id=... and path=...")
	}
	return id, path, nil
}

// handler serves the HTTP endpoints for one Server.
type handler struct {
	srv *terrainhsr.Server
	opt Options
}

// startTrace begins (or declines) a trace for one request and opens its
// request span. Propagated trace IDs always trace; otherwise the tracer's
// head-based sampler decides. The unsampled path allocates nothing.
func (h *handler) startTrace(r *http.Request) (*obs.Trace, obs.SpanToken) {
	tr := h.opt.Tracer.StartIf(r.Header.Get(obs.TraceHeader))
	return tr, tr.StartSpan(obs.StageRequest)
}

// maxHeaderSpans caps the spans exported in one obs.SpansHeader response
// header, keeping the header well under proxy size limits.
const maxHeaderSpans = 64

// finishTrace closes the request span and seals the trace into the
// tracer's ring. When the response headers are still open (headersOpen),
// it also echoes the trace ID in obs.TraceHeader and exports the finished
// spans in obs.SpansHeader for an upstream router to graft; streaming
// endpoints whose body is already in flight pass headersOpen=false and
// keep their spans local.
func (h *handler) finishTrace(w http.ResponseWriter, tr *obs.Trace, tok obs.SpanToken, headersOpen bool) {
	if !tr.Sampled() {
		return
	}
	tr.EndSpan(tok)
	if headersOpen {
		w.Header().Set(obs.TraceHeader, tr.ID())
		if spans := tr.SpansJSON(maxHeaderSpans); spans != "" {
			w.Header().Set(obs.SpansHeader, spans)
		}
	}
	h.opt.Tracer.Finish(tr)
}

// observe records one answered request's whole time into the server's
// stage histograms under its plan mode; the server itself records the
// query's plan, cache, solve, merge and page-in wait stages.
func (h *handler) observe(qr *terrainhsr.QueryResult, elapsed time.Duration) {
	h.srv.Metrics().Observe(obs.StageRequest, qr.Mode, elapsed)
}

// logQuery emits the structured per-query log line: Debug for ordinary
// queries, Warn with the plan explanation and cost ledger for queries at
// or past the slow-query threshold.
func (h *handler) logQuery(tr *obs.Trace, qr *terrainhsr.QueryResult, terrain string, elapsed time.Duration) {
	slow := h.opt.SlowQuery > 0 && elapsed >= h.opt.SlowQuery
	lg := h.opt.Logger
	if !slow && !lg.Enabled(nil, slog.LevelDebug) {
		return
	}
	attrs := []any{
		slog.String("terrain", terrain),
		slog.String("cache", qr.Cache),
		slog.String("mode", qr.Mode),
		slog.Duration("elapsed", elapsed),
	}
	if id := tr.ID(); id != "" {
		attrs = append(attrs, slog.String("trace", id))
	}
	if !slow {
		lg.Debug("query", attrs...)
		return
	}
	attrs = append(attrs, slog.String("plan", qr.Plan))
	if qr.Cost != nil {
		attrs = append(attrs, slog.Any("cost", *qr.Cost))
	}
	lg.Warn("slow query", attrs...)
}

func (h *handler) healthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (h *handler) statsz(w http.ResponseWriter, _ *http.Request) {
	h.writeJSON(w, h.srv.Stats())
}

// terrainInfo is one /terrains list entry.
type terrainInfo struct {
	ID        string    `json:"id"`
	Edges     int       `json:"edges"`
	Vertices  int       `json:"vertices"`
	Triangles int       `json:"triangles"`
	Levels    int       `json:"levels"`
	CellSizes []float64 `json:"cell_sizes,omitempty"`
	Store     string    `json:"store,omitempty"`
}

func (h *handler) terrains(w http.ResponseWriter, _ *http.Request) {
	ids := h.srv.TerrainIDs()
	out := struct {
		Terrains   []terrainInfo `json:"terrains"`
		Algorithms []string      `json:"algorithms"`
	}{Terrains: []terrainInfo{}}
	for _, id := range ids {
		// Describe never pages store tiles, so listing stays cheap.
		if info, ok := h.srv.Describe(id); ok {
			out.Terrains = append(out.Terrains, terrainInfo{
				ID: id, Edges: info.Edges, Vertices: info.Vertices, Triangles: info.Triangles,
				Levels: info.Levels, CellSizes: info.CellSizes, Store: info.Store,
			})
		}
	}
	for _, a := range terrainhsr.ServedAlgorithms() {
		out.Algorithms = append(out.Algorithms, string(a))
	}
	h.writeJSON(w, out)
}

// viewshedResponse is the JSON answer of a single-eye /viewshed query,
// minus the pieces array, which is streamed after these fields through
// Result.EachPiece rather than materialized (see writeViewshedJSON).
type viewshedResponse struct {
	Terrain      string                 `json:"terrain"`
	Eye          [3]float64             `json:"eye"`
	QuantizedEye [3]float64             `json:"quantized_eye"`
	Algorithm    string                 `json:"algorithm"`
	Cache        string                 `json:"cache"`
	Tiled        bool                   `json:"tiled"`
	Plan         string                 `json:"plan"`
	Mode         string                 `json:"mode,omitempty"`
	Level        int                    `json:"level"`
	Levels       int                    `json:"levels"`
	CellSize     float64                `json:"cell_size,omitempty"`
	Final        *bool                  `json:"final,omitempty"`
	N            int                    `json:"n"`
	K            int                    `json:"k"`
	ElapsedMS    float64                `json:"elapsed_ms"`
	Cost         *terrainhsr.CostLedger `json:"cost,omitempty"`
}

// responseFor fills the shared header fields of one answered query.
func responseFor(id string, eye terrainhsr.Point, qr *terrainhsr.QueryResult, elapsed time.Duration) viewshedResponse {
	return viewshedResponse{
		Terrain:      id,
		Eye:          [3]float64{eye.X, eye.Y, eye.Z},
		QuantizedEye: [3]float64{qr.Eye.X, qr.Eye.Y, qr.Eye.Z},
		Algorithm:    string(qr.Result.Algorithm()),
		Cache:        qr.Cache,
		Tiled:        qr.Tiled,
		Plan:         qr.Plan,
		Mode:         qr.Mode,
		Level:        qr.Level,
		Levels:       qr.Levels,
		CellSize:     qr.LevelCellSize,
		N:            qr.Result.N(),
		K:            qr.Result.K(),
		ElapsedMS:    float64(elapsed.Microseconds()) / 1000,
		Cost:         qr.Cost,
	}
}

// writeViewshedJSON writes the response header fields followed by a
// "pieces" array streamed piece by piece, never holding the converted
// slice. A header that cannot be encoded is answered 500 before any byte
// of the body is written.
func (h *handler) writeViewshedJSON(w http.ResponseWriter, resp viewshedResponse, r *terrainhsr.Result) {
	buf, err := json.MarshalIndent(resp, "", "  ")
	if err != nil {
		h.opt.Logger.Error("encode failed", slog.String("endpoint", "viewshed"), slog.Any("err", err))
		httpErr(w, http.StatusInternalServerError, "encode response: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	// MarshalIndent ends with "\n}"; splice the streamed array in before
	// the closing brace.
	buf = bytes.TrimSuffix(buf, []byte("\n}"))
	if _, err := w.Write(buf); err != nil {
		return
	}
	if _, err := io.WriteString(w, ",\n  \"pieces\": ["); err != nil {
		return
	}
	pw := newPieceWriter(w, 4)
	defer pw.release()
	pw.memo.reserve(r.K())
	var streamErr error
	r.EachPiece(func(p terrainhsr.Piece) bool {
		streamErr = pw.piece(p)
		return streamErr == nil
	})
	if streamErr == nil {
		streamErr = pw.flush()
	}
	if streamErr != nil {
		// The status line is already sent; the best we can do is log that
		// the streamed array was cut short rather than pretend it is whole.
		h.opt.Logger.Warn("pieces stream truncated",
			slog.String("terrain", resp.Terrain), slog.Any("err", streamErr))
		return
	}
	if pw.n == 0 {
		io.WriteString(w, "]\n}\n")
		return
	}
	io.WriteString(w, "\n  ]\n}\n")
}

// viewshedProgressive answers one progressive query: a JSON object whose
// "passes" array streams the coarse preview pass followed by the exact
// finest pass, each with the usual response fields plus its own pieces
// (streamed piece by piece, like the single-pass response). The JSON
// prologue is written only once the first pass has solved, so errors that
// precede any output — unknown terrains, bad algorithms, unreadable
// stores — still get a proper error status instead of truncated JSON.
func (h *handler) viewshedProgressive(w http.ResponseWriter, base terrainhsr.Query) {
	firstPass, passOpen := true, false
	pw := newPieceWriter(w, 8)
	defer pw.release()
	err := h.srv.QueryProgressive(base,
		func(p terrainhsr.ProgressivePass) error {
			// The previous pass's pieces go out before anything else.
			if err := pw.flush(); err != nil {
				return err
			}
			pw.memo.reserve(p.Result.Result.K())
			h.observe(p.Result, p.Elapsed)
			h.logQuery(base.Trace, p.Result, base.TerrainID, p.Elapsed)
			// Per-pass timing comes from the server: the pass's own answer
			// time, excluding the streaming of other passes' pieces.
			resp := responseFor(base.TerrainID, base.Eye, p.Result, p.Elapsed)
			final := p.Final
			resp.Final = &final
			buf, err := json.MarshalIndent(resp, "    ", "  ")
			if err != nil {
				return err
			}
			buf = bytes.TrimSuffix(buf, []byte("\n    }"))
			sep := ",\n    "
			if firstPass {
				w.Header().Set("Content-Type", "application/json")
				if _, err := fmt.Fprintf(w, "{\n  \"terrain\": %q,\n  \"passes\": [", base.TerrainID); err != nil {
					return err
				}
				firstPass, sep = false, "\n    "
			}
			if passOpen {
				if err := closePass(w, pw.n == 0); err != nil {
					return err
				}
			}
			passOpen = true
			if _, err := io.WriteString(w, sep); err != nil {
				return err
			}
			if _, err := w.Write(buf); err != nil {
				return err
			}
			_, err = io.WriteString(w, ",\n      \"pieces\": [")
			pw.open()
			return err
		},
		pw.piece)
	// The last pass's pieces, or those streamed before a failure.
	if flushErr := pw.flush(); err == nil {
		err = flushErr
	}
	if err != nil {
		if firstPass {
			// Nothing was written yet: report the failure properly.
			httpErr(w, queryStatus(err), "%v", err)
			return
		}
		// The status line and part of the body are already out; log that the
		// stream was cut short rather than pretend it is whole.
		h.opt.Logger.Warn("progressive stream truncated",
			slog.String("terrain", base.TerrainID), slog.Any("err", err))
		return
	}
	if passOpen {
		if err := closePass(w, pw.n == 0); err != nil {
			return
		}
	}
	io.WriteString(w, "\n  ]\n}\n")
}

// closePass terminates one pass object in a progressive response.
func closePass(w io.Writer, empty bool) error {
	if empty { // no pieces were streamed: close the empty array inline
		_, err := io.WriteString(w, "]\n    }")
		return err
	}
	_, err := io.WriteString(w, "\n      ]\n    }")
	return err
}

// eyeSummary is one entry of a multi-eye /viewshed response.
type eyeSummary struct {
	Eye          [3]float64 `json:"eye"`
	QuantizedEye [3]float64 `json:"quantized_eye"`
	Cache        string     `json:"cache"`
	K            int        `json:"k"`
}

func (h *handler) viewshed(w http.ResponseWriter, r *http.Request) {
	qv := r.URL.Query()
	id := qv.Get("terrain")
	if id == "" {
		ids := h.srv.TerrainIDs()
		if len(ids) != 1 {
			httpErr(w, http.StatusBadRequest, "terrain parameter required (registered: %s)", strings.Join(ids, ", "))
			return
		}
		id = ids[0]
	}
	algo := terrainhsr.Algorithm(qv.Get("algorithm"))
	minDepth, err := floatParam(qv, "mindepth")
	if err != nil {
		httpErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	budget, err := floatParam(qv, "budget")
	if err != nil {
		httpErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	base := terrainhsr.Query{
		TerrainID:   id,
		Algorithm:   algo,
		MinDepth:    minDepth,
		ErrorBudget: budget,
		NoCache:     qv.Get("nocache") == "1",
	}

	eyeParams := qv["eye"]
	if len(eyeParams) == 0 {
		httpErr(w, http.StatusBadRequest, "eye parameter required (x,y,z)")
		return
	}
	if len(eyeParams) > maxEyes {
		httpErr(w, http.StatusBadRequest, "%d eyes exceed the limit %d", len(eyeParams), maxEyes)
		return
	}
	tr, reqTok := h.startTrace(r)
	base.Trace = tr
	if len(eyeParams) > 1 {
		if qv.Get("progressive") == "1" {
			httpErr(w, http.StatusBadRequest, "progressive responses answer a single eye")
			return
		}
		h.viewshedMany(w, base, eyeParams, reqTok)
		return
	}
	eye, err := parseEye(eyeParams[0])
	if err != nil {
		httpErr(w, http.StatusBadRequest, "bad eye: %v", err)
		return
	}
	base.Eye = eye
	if qv.Get("progressive") == "1" {
		if f := qv.Get("format"); f != "" && f != "json" {
			httpErr(w, http.StatusBadRequest, "progressive responses are JSON only")
			return
		}
		// The body streams, so the spans header cannot wait for the end;
		// echo the trace ID up front and keep the spans in the local ring.
		if tr.Sampled() {
			w.Header().Set(obs.TraceHeader, tr.ID())
		}
		h.viewshedProgressive(w, base)
		h.finishTrace(w, tr, reqTok, false)
		return
	}
	t0 := time.Now()
	qr, err := h.srv.Query(base)
	if err != nil {
		h.finishTrace(w, tr, reqTok, true)
		httpErr(w, queryStatus(err), "%v", err)
		return
	}
	elapsed := time.Since(t0)
	h.observe(qr, elapsed)
	h.logQuery(tr, qr, id, elapsed)
	h.finishTrace(w, tr, reqTok, true)

	switch format := qv.Get("format"); format {
	case "", "json":
		h.writeViewshedJSON(w, responseFor(id, eye, qr, elapsed), qr.Result)
	case "svg":
		// Render against the level that actually answered: the pieces came
		// from that level's surface, and a coarse answer must not page the
		// finest level's tiles just to draw a frame.
		tr, err := h.srv.LevelTerrain(id, qr.Level)
		if err != nil {
			httpErr(w, http.StatusInternalServerError, "terrain for render: %v", err)
			return
		}
		persp, err := tr.FromPerspective(qr.Eye, minDepth)
		if err != nil {
			httpErr(w, http.StatusInternalServerError, "perspective for render: %v", err)
			return
		}
		width := intParam(qv.Get("width"), 800)
		w.Header().Set("Content-Type", "image/svg+xml")
		stream, err := terrainhsr.NewSVGStream(w, persp, terrainhsr.RenderOptions{
			Width: width, ShowHidden: true,
			Title: fmt.Sprintf("viewshed %s from %v,%v,%v", id, qr.Eye.X, qr.Eye.Y, qr.Eye.Z),
		})
		if err != nil {
			h.opt.Logger.Error("svg render failed", slog.String("terrain", id), slog.Any("err", err))
			return
		}
		var streamErr error
		qr.Result.EachPiece(func(p terrainhsr.Piece) bool {
			streamErr = stream.Piece(p)
			return streamErr == nil
		})
		if streamErr == nil {
			streamErr = stream.Close()
		}
		if streamErr != nil {
			h.opt.Logger.Error("svg render failed", slog.String("terrain", id), slog.Any("err", streamErr))
		}
	case "ascii":
		width := intParam(qv.Get("width"), 100)
		height := intParam(qv.Get("height"), 30)
		if width > maxASCIISide || height > maxASCIISide {
			httpErr(w, http.StatusBadRequest, "ascii %dx%d exceeds the limit %d per side", width, height, maxASCIISide)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if err := terrainhsr.RenderASCII(w, qr.Result, width, height); err != nil {
			h.opt.Logger.Error("ascii render failed", slog.String("terrain", id), slog.Any("err", err))
		}
	default:
		httpErr(w, http.StatusBadRequest, "unknown format %q (json, svg, ascii)", format)
	}
}

// viewshedMany answers a multi-eye query with a JSON summary. A sampled
// trace covers all eyes: their plan/solve spans interleave under one
// request span.
func (h *handler) viewshedMany(w http.ResponseWriter, base terrainhsr.Query, eyeParams []string, reqTok obs.SpanToken) {
	var eyes []terrainhsr.Point
	for _, part := range eyeParams {
		eye, err := parseEye(part)
		if err != nil {
			httpErr(w, http.StatusBadRequest, "bad eye entry %q: %v", part, err)
			return
		}
		eyes = append(eyes, eye)
	}
	t0 := time.Now()
	results, err := h.srv.QueryMany(base, eyes)
	if err != nil {
		h.finishTrace(w, base.Trace, reqTok, true)
		httpErr(w, queryStatus(err), "%v", err)
		return
	}
	elapsed := time.Since(t0)
	for _, qr := range results {
		h.observe(qr, elapsed/time.Duration(len(results)))
	}
	h.finishTrace(w, base.Trace, reqTok, true)
	out := struct {
		Terrain   string       `json:"terrain"`
		Count     int          `json:"count"`
		ElapsedMS float64      `json:"elapsed_ms"`
		Results   []eyeSummary `json:"results"`
	}{Terrain: base.TerrainID, Count: len(results), ElapsedMS: float64(elapsed.Microseconds()) / 1000}
	for i, qr := range results {
		out.Results = append(out.Results, eyeSummary{
			Eye:          [3]float64{eyes[i].X, eyes[i].Y, eyes[i].Z},
			QuantizedEye: [3]float64{qr.Eye.X, qr.Eye.Y, qr.Eye.Z},
			Cache:        qr.Cache,
			K:            qr.Result.K(),
		})
	}
	h.writeJSON(w, out)
}

// maxEyes bounds the eyes one request solves: the eye list of a multi-eye
// /viewshed, and both the waypoints and the frames of a /flyover.
const maxEyes = 4096

// maxASCIISide bounds the width and the height of an ASCII render, whose
// character grid is allocated whole.
const maxASCIISide = 1000

// flyover answers a camera path as one frame-coherent session
// (Server.QuerySession): each frame warm-starts from the one before —
// identical eyes replay, moving eyes reuse verified tile verdicts — and the
// pieces of every frame are byte-identical to an independent /viewshed of
// the same eye. Parameters: terrain, eye (repeated waypoints), frames
// (optional: interpolate the waypoints to this many frames, or dwell a
// single eye), algorithm, mindepth, budget, format (json streams every
// frame; svg flies the whole path and renders the final frame).
func (h *handler) flyover(w http.ResponseWriter, r *http.Request) {
	qv := r.URL.Query()
	id := qv.Get("terrain")
	if id == "" {
		ids := h.srv.TerrainIDs()
		if len(ids) != 1 {
			httpErr(w, http.StatusBadRequest, "terrain parameter required (registered: %s)", strings.Join(ids, ", "))
			return
		}
		id = ids[0]
	}
	minDepth, err := floatParam(qv, "mindepth")
	if err != nil {
		httpErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	budget, err := floatParam(qv, "budget")
	if err != nil {
		httpErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	base := terrainhsr.Query{
		TerrainID:   id,
		Algorithm:   terrainhsr.Algorithm(qv.Get("algorithm")),
		MinDepth:    minDepth,
		ErrorBudget: budget,
	}
	frames := intParam(qv.Get("frames"), 0)
	if n := max(len(qv["eye"]), frames); n > maxEyes {
		httpErr(w, http.StatusBadRequest, "%d eyes exceed the limit %d", n, maxEyes)
		return
	}
	var eyes []terrainhsr.Point
	for _, part := range qv["eye"] {
		eye, err := parseEye(part)
		if err != nil {
			httpErr(w, http.StatusBadRequest, "bad eye entry %q: %v", part, err)
			return
		}
		eyes = append(eyes, eye)
	}
	if len(eyes) == 0 {
		httpErr(w, http.StatusBadRequest, "eye parameter required (x,y,z; repeat for waypoints)")
		return
	}
	path := flyoverPath(eyes, frames)
	tr, reqTok := h.startTrace(r)
	base.Trace = tr
	switch format := qv.Get("format"); format {
	case "", "json":
		// The body streams frame by frame; echo the trace ID up front and
		// keep the spans in the local ring (see viewshed's progressive path).
		if tr.Sampled() {
			w.Header().Set(obs.TraceHeader, tr.ID())
		}
		h.flyoverJSON(w, base, path)
		h.finishTrace(w, tr, reqTok, false)
	case "svg":
		h.flyoverSVG(w, base, path, intParam(qv.Get("width"), 800))
		h.finishTrace(w, tr, reqTok, false)
	default:
		httpErr(w, http.StatusBadRequest, "unknown format %q (json, svg)", format)
	}
}

// flyoverPath expands the eye waypoints into the flown path: no frames
// parameter flies the waypoints as given, a single eye dwells in place for
// frames frames (the replay fast path), and several eyes interpolate along
// the piecewise-linear route (WaypointPath's arc-length parameterization).
func flyoverPath(eyes []terrainhsr.Point, frames int) []terrainhsr.Point {
	if frames <= 0 || frames == len(eyes) {
		return eyes
	}
	if len(eyes) == 1 {
		out := make([]terrainhsr.Point, frames)
		for i := range out {
			out[i] = eyes[0]
		}
		return out
	}
	return terrainhsr.WaypointPath(eyes, frames).Viewpoints()
}

// flyoverFrameMeta is the trailing field block of one /flyover JSON frame —
// everything known only after the frame solved; the frame's pieces stream
// before it, so nothing is buffered per frame.
type flyoverFrameMeta struct {
	QuantizedEye    [3]float64 `json:"quantized_eye"`
	Cache           string     `json:"cache"`
	Replayed        bool       `json:"replayed"`
	TilesReused     int        `json:"tiles_reused"`
	TilesReverified int        `json:"tiles_reverified"`
	TilesResolved   int        `json:"tiles_resolved"`
	VerifyFailures  int        `json:"verify_failures"`
	Tiled           bool       `json:"tiled"`
	Level           int        `json:"level"`
	K               int        `json:"k"`
	ElapsedMS       float64    `json:"elapsed_ms"`
}

// flyoverJSON streams the session's frames as one JSON object: a "frames"
// array whose entries open with the requested eye, stream their pieces, and
// close with the frame's metadata (reuse ledger, timing). The prologue is
// written only once the first frame produces output, so a failing first
// frame still gets a proper error status.
func (h *handler) flyoverJSON(w http.ResponseWriter, base terrainhsr.Query, path []terrainhsr.Point) {
	wrote := false
	pw := newPieceWriter(w, 8)
	defer pw.release()
	openFrame := func(i int, eye terrainhsr.Point) error {
		if !wrote {
			w.Header().Set("Content-Type", "application/json")
			if _, err := fmt.Fprintf(w, "{\n  \"terrain\": %q,\n  \"frames\": [", base.TerrainID); err != nil {
				return err
			}
			wrote = true
		}
		sep := ",\n    "
		if i == 0 {
			sep = "\n    "
		}
		eb, err := json.Marshal([3]float64{eye.X, eye.Y, eye.Z})
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(w, "%s{\n      \"eye\": %s,\n      \"pieces\": [", sep, eb)
		return err
	}
	for i, eye := range path {
		q := base
		q.Eye = eye
		opened := false
		pw.open()
		t0 := time.Now()
		qr, err := h.srv.QuerySession(q, func(p terrainhsr.Piece) error {
			if !opened {
				if err := openFrame(i, eye); err != nil {
					return err
				}
				opened = true
			}
			return pw.piece(p)
		})
		if err != nil {
			if !wrote {
				httpErr(w, queryStatus(err), "%v", err)
				return
			}
			pw.flush() // the pieces streamed before the failure
			h.opt.Logger.Warn("flyover stream truncated",
				slog.String("terrain", base.TerrainID), slog.Any("err", err))
			return
		}
		frameElapsed := time.Since(t0)
		h.observe(qr, frameElapsed)
		h.logQuery(base.Trace, qr, base.TerrainID, frameElapsed)
		if !opened { // a frame with no visible pieces still appears
			if err := openFrame(i, eye); err != nil {
				return
			}
		}
		meta := flyoverFrameMeta{
			QuantizedEye: [3]float64{qr.Eye.X, qr.Eye.Y, qr.Eye.Z},
			Cache:        qr.Cache,
			Tiled:        qr.Tiled,
			Level:        qr.Level,
			K:            pw.n,
			ElapsedMS:    float64(frameElapsed.Microseconds()) / 1000,
		}
		if qr.Reuse != nil {
			meta.Replayed = qr.Reuse.Replayed
			meta.TilesReused = qr.Reuse.TilesReused
			meta.TilesReverified = qr.Reuse.TilesReverified
			meta.TilesResolved = qr.Reuse.TilesResolved
			meta.VerifyFailures = qr.Reuse.VerifyFailures
		}
		if err := pw.flush(); err != nil {
			return
		}
		mb, err := json.MarshalIndent(meta, "    ", "  ")
		if err != nil {
			h.opt.Logger.Error("encode failed", slog.String("endpoint", "flyover"), slog.Any("err", err))
			return
		}
		// Close the pieces array and splice the metadata fields into the
		// still-open frame object (MarshalIndent's closing brace ends it).
		closer := "\n      ],"
		if pw.n == 0 {
			closer = "],"
		}
		if _, err := io.WriteString(w, closer); err != nil {
			return
		}
		if _, err := w.Write(bytes.TrimPrefix(mb, []byte("{"))); err != nil {
			return
		}
	}
	io.WriteString(w, "\n  ]\n}\n")
}

// flyoverSVG flies the whole path through the session and renders the final
// frame as SVG — the "what do I see when I get there" form. Earlier frames
// still run (and warm the session); only their pieces are discarded.
func (h *handler) flyoverSVG(w http.ResponseWriter, base terrainhsr.Query, path []terrainhsr.Point, width int) {
	var qr *terrainhsr.QueryResult
	var pieces []terrainhsr.Piece
	for i, eye := range path {
		q := base
		q.Eye = eye
		sink := func(terrainhsr.Piece) error { return nil }
		if i == len(path)-1 {
			sink = func(p terrainhsr.Piece) error { pieces = append(pieces, p); return nil }
		}
		var err error
		if qr, err = h.srv.QuerySession(q, sink); err != nil {
			httpErr(w, queryStatus(err), "%v", err)
			return
		}
	}
	tr, err := h.srv.LevelTerrain(base.TerrainID, qr.Level)
	if err != nil {
		httpErr(w, http.StatusInternalServerError, "terrain for render: %v", err)
		return
	}
	persp, err := tr.FromPerspective(qr.Eye, base.MinDepth)
	if err != nil {
		httpErr(w, http.StatusInternalServerError, "perspective for render: %v", err)
		return
	}
	w.Header().Set("Content-Type", "image/svg+xml")
	stream, err := terrainhsr.NewSVGStream(w, persp, terrainhsr.RenderOptions{
		Width: width, ShowHidden: true,
		Title: fmt.Sprintf("flyover %s, frame %d of %d at %v,%v,%v",
			base.TerrainID, len(path), len(path), qr.Eye.X, qr.Eye.Y, qr.Eye.Z),
	})
	if err != nil {
		h.opt.Logger.Error("svg render failed", slog.String("terrain", base.TerrainID), slog.Any("err", err))
		return
	}
	streamErr := error(nil)
	for _, p := range pieces {
		if streamErr = stream.Piece(p); streamErr != nil {
			break
		}
	}
	if streamErr == nil {
		streamErr = stream.Close()
	}
	if streamErr != nil {
		h.opt.Logger.Error("svg render failed", slog.String("terrain", base.TerrainID), slog.Any("err", streamErr))
	}
}

// parseEye parses "x,y,z"; every coordinate must be finite.
func parseEye(s string) (terrainhsr.Point, error) {
	parts := strings.Split(strings.TrimSpace(s), ",")
	if len(parts) != 3 {
		return terrainhsr.Point{}, fmt.Errorf("want x,y,z, got %q", s)
	}
	var vals [3]float64
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return terrainhsr.Point{}, err
		}
		if !finite(v) {
			return terrainhsr.Point{}, fmt.Errorf("coordinate %c is not finite (%q)", "xyz"[i], p)
		}
		vals[i] = v
	}
	return terrainhsr.Point{X: vals[0], Y: vals[1], Z: vals[2]}, nil
}

// floatParam parses an optional finite float parameter; absent is 0.
func floatParam(qv url.Values, name string) (float64, error) {
	s := qv.Get(name)
	if s == "" {
		return 0, nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad %s %q", name, s)
	}
	if !finite(v) {
		return 0, fmt.Errorf("bad %s %q: not finite", name, s)
	}
	return v, nil
}

// finite reports whether v is neither NaN nor an infinity.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// intParam parses an optional positive integer parameter.
func intParam(s string, def int) int {
	if s == "" {
		return def
	}
	if v, err := strconv.Atoi(s); err == nil && v > 0 {
		return v
	}
	return def
}

// httpErr writes a plain-text error response.
func httpErr(w http.ResponseWriter, status int, format string, args ...any) {
	http.Error(w, fmt.Sprintf(format, args...), status)
}

// queryStatus maps a Server.Query error to an HTTP status: unknown
// terrains are 404, everything else (bad eyes, bad algorithms) 400.
func queryStatus(err error) int {
	if errors.Is(err, terrainhsr.ErrUnknownTerrain) {
		return http.StatusNotFound
	}
	return http.StatusBadRequest
}

// writeJSON writes v as indented JSON.
func (h *handler) writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		h.opt.Logger.Error("encode failed", slog.Any("err", err))
	}
}
