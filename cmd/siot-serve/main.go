// Command siot-serve runs the trust-as-a-service engine over HTTP+JSON: a
// long-lived process that ingests observation/recommendation events into
// the population's trust stores, answers trust(trustor, trustee, type)
// queries lock-free from the current frozen epoch, republishes the epoch on
// a count- or time-triggered cadence, and appends every event and served
// value to a replayable, CRC-protected trust-assertion journal.
//
// Usage:
//
//	siot-serve -addr 127.0.0.1:8476 -net facebook -seeded -journal trust.jsonl
//	siot-serve -nodes 1000 -model conservative -epoch-every 512 -fsync always
//	siot-serve -net twitter -model hellinger-mf -journal trust.jsonl
//	siot-serve -journal trust.jsonl -resume
//	siot-serve -replay trust.jsonl
//
// Endpoints:
//
//	GET  /trust?trustor=A&trustee=B&type=T  one trust value from the current epoch
//	POST /observe                            {"trustor","trustee","type","success","gain","damage","cost","abusive"}
//	POST /recommend                          {"trustor","trustee","type","s","g","d","c"}
//	GET  /stats                              ingest/query/epoch/durability counters
//	GET  /healthz                            liveness
//
// POST bodies are one JSON object of at most 4 KiB (413 past that);
// unknown fields and trailing data are rejected with 400. The server bounds
// header, request-read and idle-connection time.
//
// Ingest acknowledgements are durability promises: a 202 means the event's
// journal line has been fsynced per -fsync (so "batch", the default, groups
// events into one fsync per applied batch). When the ingest queue stays
// full past -ingest-timeout the request is shed with 429 and a Retry-After
// header; when the journal itself fails the engine degrades — ingest
// returns 503 while queries keep answering from the last durable epoch
// (watch epoch_staleness_ms in /stats) until a restart with -resume.
//
// The journal is opened in append mode and never truncated at startup: a
// non-empty journal is refused unless -resume is given, in which case the
// engine is rebuilt from the journal prefix (tolerating one torn final
// line) and continues appending where it left off.
//
// With -replay, siot-serve verifies a journal instead of serving: it
// rebuilds the world from the journal header, re-applies every event,
// re-captures every epoch, and re-answers every query, exiting 0 only if
// each served trust value reproduces bit-for-bit.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"siot/internal/cliutil"
	"siot/internal/core"
	"siot/internal/serve"
)

func main() {
	var (
		addr          = flag.String("addr", "127.0.0.1:8476", "listen address")
		netName       = flag.String("net", "facebook", "network profile: facebook, gplus, twitter (ignored when -nodes > 0)")
		nodes         = flag.Int("nodes", 0, "serve the canonical benchmark network at this node count instead of -net")
		seed          = flag.Uint64("seed", 1, "world seed (network, roles, task universe, seeding)")
		chars         = flag.Int("chars", 5, "task-characteristic alphabet size")
		modelName     = flag.String("model", "aggressive", "trust model for non-direct answers: "+strings.Join(core.ModelNames(), ", "))
		seeded        = flag.Bool("seeded", true, "pre-seed experience records so queries are answerable from the start")
		theta         = flag.Float64("theta", 0.3, "reverse-evaluation threshold installed on trustees")
		epochEvery    = flag.Int("epoch-every", 256, "republish the epoch after this many applied events")
		epochInterval = flag.Duration("epoch-interval", time.Second, "also republish on this interval when events arrived (0 disables)")
		journalPath   = flag.String("journal", "", "append the trust-assertion journal to this file")
		fsyncName     = flag.String("fsync", "batch", "journal durability: always (fsync per event), batch (fsync per applied batch and epoch), off")
		resume        = flag.Bool("resume", false, "recover engine state from the existing -journal (truncating a torn tail) and continue appending")
		ingestTimeout = flag.Duration("ingest-timeout", time.Second, "how long ingest requests wait for a full queue before shedding with 429 (0 = wait indefinitely)")
		replayPath    = flag.String("replay", "", "verify a journal byte-for-byte and exit (no server)")
		parallel      = flag.Int("parallel", 0, "capture worker-pool width (0 = GOMAXPROCS); values are identical at any width")
	)
	flag.Parse()

	for _, err := range []error{
		cliutil.ValidateParallel(*parallel),
		cliutil.ValidatePositive("-chars", *chars),
		cliutil.ValidatePositive("-epoch-every", *epochEvery),
	} {
		if err != nil {
			cliutil.Usage("siot-serve", err)
		}
	}
	fsync, err := serve.ParseFsyncMode(*fsyncName)
	if err != nil {
		cliutil.Usage("siot-serve", err)
	}
	if *resume && *journalPath == "" {
		cliutil.Usage("siot-serve", errors.New("-resume requires -journal"))
	}

	if *replayPath != "" {
		f, err := os.Open(*replayPath)
		if err != nil {
			cliutil.Runtime("siot-serve", err)
		}
		defer f.Close()
		stats, err := serve.Replay(bufio.NewReader(f))
		if err != nil {
			cliutil.Runtime("siot-serve", err)
		}
		fmt.Printf("replay OK: %d events, %d epochs, %d queries reproduced bit-for-bit\n",
			stats.Events, stats.Epochs, stats.Queries)
		return
	}

	mdl, err := core.ParseModel(*modelName)
	if err != nil {
		cliutil.Usage("siot-serve", err)
	}

	cfg := serve.Config{
		Net: *netName, Nodes: *nodes, Seed: *seed, Chars: *chars,
		Model: mdl, Seeded: *seeded, Theta: *theta,
		EpochEvery: *epochEvery, EpochInterval: *epochInterval,
		Workers: *parallel, Fsync: fsync,
	}
	var journalFile *os.File
	if *journalPath != "" {
		journalFile, err = os.OpenFile(*journalPath, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
		if err != nil {
			cliutil.Runtime("siot-serve", err)
		}
		info, err := journalFile.Stat()
		if err != nil {
			cliutil.Runtime("siot-serve", err)
		}
		if !*resume && info.Size() > 0 {
			cliutil.Usage("siot-serve", fmt.Errorf(
				"journal %s already holds %d bytes; pass -resume to recover from it (or -replay to verify it)",
				*journalPath, info.Size()))
		}
		cfg.Journal = journalFile
	}

	var engine *serve.Engine
	if *resume {
		var rstats serve.RecoverStats
		engine, rstats, err = serve.Recover(journalFile, cfg)
		if err != nil {
			cliutil.Runtime("siot-serve", err)
		}
		log.Printf("siot-serve: recovered %d events, %d epochs, %d queries from %s (%d torn bytes truncated)",
			rstats.Events, rstats.Epochs, rstats.Queries, *journalPath, rstats.TornBytes)
	} else {
		engine, err = serve.New(cfg)
		if err != nil {
			cliutil.Usage("siot-serve", err)
		}
	}

	// WriteTimeout stays unset: with -ingest-timeout 0 an ingest handler
	// waits on a full queue indefinitely by design, and a write deadline
	// would cut that wait short without telling the engine.
	srv := &http.Server{
		Addr: *addr, Handler: newHandler(engine, *ingestTimeout),
		ReadHeaderTimeout: readHeaderTimeout, ReadTimeout: readTimeout, IdleTimeout: idleTimeout,
	}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("siot-serve: %d agents, %d task types, model %s, fsync %s, listening on %s",
		engine.NumAgents(), len(engine.TaskTypes()), mdl.Name(), fsync, *addr)

	select {
	case <-ctx.Done():
	case err := <-errc:
		engine.Close()
		cliutil.Runtime("siot-serve", err)
	}
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer shutCancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		log.Printf("siot-serve: shutdown: %v", err)
	}
	if err := engine.Close(); err != nil {
		// The drain could not make every acknowledged event durable; the
		// error names the first event seq whose journal line is suspect.
		log.Printf("siot-serve: journal drain failed: %v", err)
		cliutil.Runtime("siot-serve", err)
	}
	if journalFile != nil {
		if err := journalFile.Close(); err != nil {
			cliutil.Runtime("siot-serve", err)
		}
	}
}

// trustResponse is the GET /trust payload. TWBits carries the exact float64
// bit pattern the journal records — the value the replay contract defends.
type trustResponse struct {
	TW     float64 `json:"tw"`
	TWBits string  `json:"tw_bits"`
	Found  bool    `json:"found"`
	Direct bool    `json:"direct"`
	Epoch  uint64  `json:"epoch"`
}

// Server input bounds. A valid ingest body is under 300 bytes, so
// maxBodyBytes leaves ample room while refusing oversized payloads (413).
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 10 * time.Second
	idleTimeout       = 60 * time.Second
	maxBodyBytes      = 4 << 10
)

// observeRequest is the POST /observe payload.
type observeRequest struct {
	Trustor int32   `json:"trustor"`
	Trustee int32   `json:"trustee"`
	Type    int     `json:"type"`
	Success bool    `json:"success"`
	Gain    float64 `json:"gain"`
	Damage  float64 `json:"damage"`
	Cost    float64 `json:"cost"`
	Abusive bool    `json:"abusive"`
}

// recommendRequest is the POST /recommend payload.
type recommendRequest struct {
	Trustor int32   `json:"trustor"`
	Trustee int32   `json:"trustee"`
	Type    int     `json:"type"`
	S       float64 `json:"s"`
	G       float64 `json:"g"`
	D       float64 `json:"d"`
	C       float64 `json:"c"`
}

// newHandler routes the engine's API. Split from main so the tests can
// drive it through httptest without a listener. ingestTimeout bounds how
// long an ingest request may wait on a full queue before shedding (0 waits
// indefinitely).
func newHandler(e *serve.Engine, ingestTimeout time.Duration) http.Handler {
	ingest := func(r *http.Request, ev serve.Event) error {
		ctx := r.Context()
		if ingestTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, ingestTimeout)
			defer cancel()
		}
		return e.IngestCtx(ctx, ev)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /trust", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		args := make(map[string]int64, 3)
		for _, name := range []string{"trustor", "trustee", "type"} {
			v, err := strconv.ParseInt(q.Get(name), 10, 32)
			if err != nil {
				httpError(w, http.StatusBadRequest, fmt.Errorf("query parameter %q: want an integer, got %q", name, q.Get(name)))
				return
			}
			args[name] = v
		}
		res, err := e.Trust(core.AgentID(args["trustor"]), core.AgentID(args["trustee"]), int(args["type"]))
		if err != nil {
			httpError(w, statusFor(err), err)
			return
		}
		writeJSON(w, trustResponse{
			TW: res.TW, TWBits: fmt.Sprintf("%016x", math.Float64bits(res.TW)),
			Found: res.Found, Direct: res.Direct, Epoch: res.Epoch,
		})
	})
	mux.HandleFunc("POST /observe", func(w http.ResponseWriter, r *http.Request) {
		var req observeRequest
		if !decodeBody(w, r, &req) {
			return
		}
		err := ingest(r, serve.Event{
			Op: serve.OpObserve, Trustor: core.AgentID(req.Trustor), Trustee: core.AgentID(req.Trustee),
			Type:    req.Type,
			Outcome: core.Outcome{Success: req.Success, Gain: req.Gain, Damage: req.Damage, Cost: req.Cost},
			Abusive: req.Abusive,
		})
		if err != nil {
			httpError(w, statusFor(err), err)
			return
		}
		w.WriteHeader(http.StatusAccepted)
	})
	mux.HandleFunc("POST /recommend", func(w http.ResponseWriter, r *http.Request) {
		var req recommendRequest
		if !decodeBody(w, r, &req) {
			return
		}
		err := ingest(r, serve.Event{
			Op: serve.OpRecommend, Trustor: core.AgentID(req.Trustor), Trustee: core.AgentID(req.Trustee),
			Type: req.Type,
			Exp:  core.Expectation{S: req.S, G: req.G, D: req.D, C: req.C},
		})
		if err != nil {
			httpError(w, statusFor(err), err)
			return
		}
		w.WriteHeader(http.StatusAccepted)
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, e.Stats())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// decodeBody decodes a POST body into v: at most maxBodyBytes (413 past
// that), no unknown fields and no trailing data after the object (400).
// It writes the error response itself and reports whether v is usable.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		if err = dec.Decode(&json.RawMessage{}); err == io.EOF {
			return true
		} else if err == nil {
			err = errors.New("trailing data after the JSON object")
		}
	}
	status := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		status = http.StatusRequestEntityTooLarge
	}
	httpError(w, status, err)
	return false
}

// statusFor maps engine errors to HTTP statuses: a full queue is the
// client's cue to back off (429), a closed or degraded engine is a server
// condition (503), anything else is a bad request.
func statusFor(err error) int {
	switch {
	case errors.Is(err, serve.ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, serve.ErrClosed), errors.Is(err, serve.ErrDegraded):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, status int, err error) {
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
