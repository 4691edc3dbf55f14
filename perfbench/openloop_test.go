package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/engine"
)

// echoLoad expects every answer to echo its request index.
type echoLoad struct{}

func (echoLoad) request(i int) request {
	return request{path: "/echo", sms: 2, body: []byte(fmt.Sprint(i))}
}

func (echoLoad) check(i int, body []byte) error {
	if string(body) != fmt.Sprint(i) {
		return fmt.Errorf("request %d: got %q", i, body)
	}
	return nil
}

func (echoLoad) finish() int { return 0 }

func (echoLoad) direct(int, *engine.Engine) (func(context.Context) error, func() error) {
	return nil, nil
}

// The generator sends every request of a rung, checks every answer and
// counts a wrong one as a failure.
func TestRungCountsAndChecks(t *testing.T) {
	wrongAt := -1
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var i int
		fmt.Fscan(r.Body, &i)
		if i == wrongAt {
			i++
		}
		fmt.Fprint(w, i)
	}))
	defer srv.Close()
	g := newLoadgen(srv.URL, 2, echoLoad{}, newRecorder())
	defer g.close()

	r := g.rung(200, 300*time.Millisecond, 50)
	if r.Sent != 60 || r.OK != 60 || r.OKSMs != 120 || !r.Pass {
		t.Fatalf("clean rung: %+v", r)
	}
	if n := len(g.spans.durNS("loadgen.request")); n != 60 {
		t.Fatalf("%d request spans, want 60", n)
	}
	wrongAt = g.next + 7
	r = g.rung(200, 300*time.Millisecond, 50)
	if r.Wrong != 1 || r.OK != 59 || r.failed() != 1 {
		t.Fatalf("rung with one wrong answer: %+v", r)
	}
}
