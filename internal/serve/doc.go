// Package serve is the HTTP surface of the viewshed query service: the
// handler cmd/hsrserved mounts, factored out as a library so the fleet
// tier (internal/fleet, cmd/hsrrouter), the load generator (cmd/hsrload)
// and the in-process fleet experiments can spin up byte-identical replicas
// without forking a binary. One replica = one terrainhsr.Server wrapped in
// New; the fleet router proxies the same endpoints unchanged, so a
// response body never depends on whether it traveled through a router —
// the property the fleet identity tests pin down byte for byte.
//
// Endpoints (see cmd/hsrserved for the operator-facing documentation):
//
//	GET /healthz   liveness probe; responds "ok".
//	GET /statsz    JSON terrainhsr.ServerStats snapshot: counters, ledgers
//	               and the stage latency histograms ("Stages").
//	GET /terrains  JSON list of registered terrains and their sizes
//	               (manifest-derived for stores; listing never pages tiles).
//	GET /viewshed  answer a viewshed query (JSON, SVG or ASCII; single or
//	               multi-eye batches; optional progressive coarse-then-exact
//	               streaming; see cmd/hsrserved for the parameter list).
//	GET /flyover   answer a camera path as a frame-coherent session
//	               (Server.QuerySession): frames warm-start from each other
//	               and stream as framed JSON, or render the final frame as
//	               SVG; see cmd/hsrserved for the parameter list.
//
// Piece wire format. The pieces array of every JSON answer (single-eye
// /viewshed, each progressive pass, each /flyover frame) holds one object
// per line with the keys in the order {"Edge":<int>,"X1":<f>,"Z1":<f>,
// "X2":<f>,"Z2":<f>}. Every <f> follows encoding/json's float64 rule: the
// shortest round-tripping decimal, with an exponent (and no leading zero
// in it) only for non-zero magnitudes below 1e-6 or at least 1e21. The
// bytes equal json.Marshal of a terrainhsr.Piece; appendPiece produces
// them without reflection. A visible vertex ends about four pieces, so
// most coordinates repeat: the writer formats each distinct float64 (keyed
// by its bits, so 0 and -0 stay apart) once per response, across all the
// passes or frames of that response, and copies the bytes for every
// repeat. The bytes are unchanged by this. Nothing is carried from one
// response to the next but storage: the writer, with its chunk buffer,
// memo table and byte arena, comes from a sync.Pool and goes back to it
// when the response ends, however it ends. Pieces go to the connection in
// fixed-size chunks, and every pass or frame is flushed before the fields
// that follow it. Float parameters must be finite; NaN and infinities are
// a 400.
//
// The package also owns the -terrain / -store spec parsing (BuildTerrain,
// ParseStoreSpec) so the serving binary, the load generator and the tests
// agree on one spec syntax.
package serve
