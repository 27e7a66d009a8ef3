package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/driver"
	"repro/internal/lint"
	"repro/internal/service"
)

// server is an in-process service.Server behind a loopback listener.
type server struct {
	http   *http.Server
	done   chan error
	url    string
	client *http.Client
}

// startService serves a new service.Server with a disk cache in cacheDir.
func startService(cacheDir string) (*server, error) {
	return startServer(service.New(&service.Options{CacheDir: cacheDir}).Handler())
}

func startServer(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		http:   &http.Server{Handler: h},
		done:   make(chan error, 1),
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{}},
	}
	go func() { s.done <- s.http.Serve(ln) }()
	return s, nil
}

// stop shuts the server down and waits for its serve loop to return.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	s.client.CloseIdleConnections()
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// httpStatusError is a non-200 response.
type httpStatusError struct{ code int }

func (e *httpStatusError) Error() string { return fmt.Sprintf("HTTP status %d", e.code) }

// vet POSTs src to /v1/vet and returns the response body.
func (s *server) vet(name, src string) ([]byte, error) {
	resp, err := s.client.Post(s.url+"/v1/vet?name="+url.QueryEscape(name), "text/plain", strings.NewReader(src))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return body, &httpStatusError{resp.StatusCode}
	}
	return body, nil
}

// serveSizes are the loop counts of the base programs: 2..10 once each,
// with 6 loops common (the median request falls among them) and 9 loops
// common (the 90th percentile does); see sizeMix.
var serveSizes = sizeMix(2, 10, [2]int{6, 14}, [2]int{9, 7})

func serveBaseInputs(seed int64) []Input {
	g := newGen(seed)
	var out []Input
	for b, loops := range serveSizes {
		in := Input{Name: fmt.Sprintf("serve-warm/b%02d.loop", b), Loops: loops}
		in.Src, in.Stmts = g.vetProgram(loops)
		out = append(out, in)
	}
	return out
}

// serveWarm is the vet service after a redeploy onto a warm disk cache:
// each op edits one loop of a base program, so a request is memory hits
// plus one miss and one disk store.
type serveWarm struct {
	dir     string
	srv     *server
	bases   []Input
	edits   [][]int // per base: line numbers of the editable statements
	want    [][]byte
	choices [][2]int // seeded (base, edit) schedule the ops cycle through
	opts    lint.Options
	status  map[int]int // non-200 responses by status code
}

const (
	// serveRounds is the length of the op schedule in rounds; each round
	// sends every base once, in a seeded order, with a seeded edit point.
	serveRounds = 64
	// Edit constants have six digits, so every edited source has the same
	// line lengths; below editSample the constants belong to set-up.
	editOps    = 100000
	editSample = 900000
)

// editPoints returns the indexes of the lines that end a loop body:
// appending a term to one changes that loop's fingerprint and nothing
// else, since no finding cites a column past a body's last reference.
func editPoints(src string) []int {
	lines := strings.Split(src, "\n")
	var out []int
	for i := 0; i+1 < len(lines); i++ {
		if strings.Contains(lines[i], ":=") && strings.TrimSpace(lines[i+1]) == "enddo" {
			out = append(out, i)
		}
	}
	return out
}

// variant is base b with edit point j extended by "+ c".
func (w *serveWarm) variant(b, j, c int) string {
	lines := strings.Split(w.bases[b].Src, "\n")
	lines[w.edits[b][j]] += fmt.Sprintf(" + %d", c)
	return strings.Join(lines, "\n")
}

func (w *serveWarm) setup(seed int64) (shape, error) {
	var sh shape
	var err error
	driver.ResetCache()
	w.status = map[int]int{}
	w.opts = lint.Options{Parallelism: 1, CacheDir: w.dir}
	if err := os.MkdirAll(w.dir, 0o755); err != nil {
		return sh, err
	}
	if w.srv, err = startService(w.dir); err != nil {
		return sh, err
	}
	w.bases, w.edits, w.want = nil, nil, nil
	for _, in := range serveBaseInputs(seed) {
		out, res := vetOnce(in, &w.opts)
		v, err := verifyVet(in, res)
		if err != nil {
			return sh, err
		}
		// The CLI-equals-service contract, checked on every base.
		got, err := w.srv.vet(in.Name, in.Src)
		if err != nil {
			return sh, fmt.Errorf("%s: %w", in.Name, err)
		}
		if err := checkBytes(in.Name+" (service vs in-process)", got, out); err != nil {
			return sh, err
		}
		w.bases = append(w.bases, in)
		w.edits = append(w.edits, editPoints(in.Src))
		w.want = append(w.want, out)
		sh.count(in)
		sh.verdicts.add(v)
	}
	// Appending a constant must leave the output unchanged: a seeded edit
	// of a seeded fourth of the bases is checked in process and through
	// the service.
	rng := rand.New(rand.NewSource(seed))
	c := editSample
	for b, base := range w.bases {
		if rng.Intn(4) != 0 {
			continue
		}
		j := rng.Intn(len(w.edits[b]))
		out, _ := vetOnce(Input{Name: base.Name, Src: w.variant(b, j, c)}, &w.opts)
		got, err := w.srv.vet(base.Name, w.variant(b, j, c+1))
		if err != nil {
			return sh, fmt.Errorf("%s: %w", base.Name, err)
		}
		c += 2
		for _, o := range [][]byte{out, got} {
			if err := checkBytes(fmt.Sprintf("%s edit %d", base.Name, j), o, w.want[b]); err != nil {
				return sh, err
			}
		}
	}
	w.choices = w.choices[:0]
	for r := 0; r < serveRounds; r++ {
		for _, b := range rng.Perm(len(w.bases)) {
			w.choices = append(w.choices, [2]int{b, rng.Intn(len(w.edits[b]))})
		}
	}
	// Redeploy: a fresh process has an empty memo table and finds the
	// solves on disk.
	if err := w.srv.stop(); err != nil {
		return sh, err
	}
	driver.ResetCache()
	w.srv, err = startService(w.dir)
	return sh, err
}

// send POSTs one op's source and times it. A non-200 status is counted
// by code. The disk cache must never report an error: a damaged entry
// degrades to a cold solve, so it would pass the byte check unseen.
func (w *serveWarm) send(name, src string) ([]byte, cost, error) {
	errs := driver.DiskCacheStats().Errors
	sw := startWatch()
	got, err := w.srv.vet(name, src)
	d := sw.stop()
	var se *httpStatusError
	if errors.As(err, &se) {
		w.status[se.code]++
	}
	if err == nil && driver.DiskCacheStats().Errors != errs {
		err = fmt.Errorf("%s: the disk cache reported an error", name)
	}
	return got, d, err
}

func (w *serveWarm) op(k, seq int) (cost, error) {
	ch := w.choices[k%len(w.choices)]
	name := w.bases[ch[0]].Name
	got, d, err := w.send(name, w.variant(ch[0], ch[1], editOps+2*seq))
	if err != nil {
		return d, err
	}
	return d, checkBytes(name, got, w.want[ch[0]])
}

// traced times the request, then replays the same pipeline in process,
// layer by layer, on an input with its own fresh edit, so the replay does
// the same cache work (memory hits, one miss, one store) the service did.
func (w *serveWarm) traced(tr *tracer, k, seq int, c counters) error {
	ch := w.choices[k%len(w.choices)]
	name := w.bases[ch[0]].Name
	before := driver.DiskCacheStats()
	root := tr.begin("op", 0)
	req := tr.begin("service.request", root)
	got, _, err := w.send(name, w.variant(ch[0], ch[1], editOps+2*seq))
	tr.end(req)
	tr.end(root)
	c.addDisk(before, driver.DiskCacheStats())
	if err != nil {
		return err
	}
	if err := checkBytes(name, got, w.want[ch[0]]); err != nil {
		return err
	}
	runtime.GC() // the replay starts on a collected heap, as the request did
	pipe := tr.standalone("pipeline")
	top, err := vetTraced(tr, pipe, Input{Name: name, Src: w.variant(ch[0], ch[1], editOps+2*seq+1)}, &w.opts)
	tr.end(pipe)
	if err != nil {
		return err
	}
	apportion(tr, top.units, w.opts.Parallelism, true)
	c.addAnalysis(top.units, verdicts(top.findings))
	return checkBytes(name+" (in-process replay)", top.out, w.want[ch[0]])
}

func (w *serveWarm) close() {
	if w.srv != nil {
		if err := w.srv.stop(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: stopping the service:", err)
		}
		w.srv = nil
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
}
