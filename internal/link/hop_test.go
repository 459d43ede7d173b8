package link

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
)

// doorAnswer is an answer as the front door renders it.
const doorAnswer = "HTTP/1.1 429 Too Many Requests\r\nContent-Type: application/json\r\n" +
	"X-Loadctl-Load: status=ok;limit=8\r\nRetry-After: 2\r\nX-Loadctl-Trace: 0000000000000007\r\n" +
	"Date: Sat, 17 Oct 2026 11:00:00 GMT\r\nContent-Length: 3\r\n\r\n{}\n"

// TestHeadAndAnswerLayout pins the bytes of one exchange: the head
// appendHead writes and what parseAnswer takes from an answer.
func TestHeadAndAnswerLayout(t *testing.T) {
	head := string(appendHead(nil, "127.0.0.1:8344", "class=interactive&k=4", 11, 0xfeedface))
	want := "POST /txn?class=interactive&k=4 HTTP/1.1\r\nHost: 127.0.0.1:8344\r\nContent-Length: 11\r\n" +
		"X-Loadctl-Trace: 00000000feedface\r\n\r\n"
	if head != want {
		t.Fatalf("head %q, want %q", head, want)
	}
	if head := string(appendHead(nil, "b", "", 0, 0)); head != "POST /txn HTTP/1.1\r\nHost: b\r\nContent-Length: 0\r\n\r\n" {
		t.Fatalf("untraced head without query or body: %q", head)
	}

	var a answer
	if done, err := parseAnswer([]byte(doorAnswer), &a); !done || err != nil {
		t.Fatalf("door answer: done %v, %v", done, err)
	}
	if a.status != 429 || a.bodyLen != 3 || a.n != len(doorAnswer)-3 || a.close ||
		a.vals != [numKept]string{"application/json", "2", "status=ok;limit=8"} {
		t.Fatalf("door answer parsed as %+v", a)
	}
	for _, c := range []struct {
		name, raw string
		done      bool
		err       error
		close     bool
	}{
		{"prefix", doorAnswer[:40], false, nil, false},
		{"lower-case names", "HTTP/1.1 200 OK\r\ncontent-length: 0\r\nconnection: keep-alive, Close\r\n\r\n", true, nil, true},
		{"no reason", "HTTP/1.1 200\r\nContent-Length: 0\r\n\r\n", true, nil, false},
		{"HTTP/1.0", "HTTP/1.0 200 OK\r\nContent-Length: 0\r\n\r\n", false, errAnswer, false},
		{"no length", "HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n\r\n", false, errAnswer, false},
		{"two lengths", "HTTP/1.1 200 OK\r\nContent-Length: 0\r\nContent-Length: 0\r\n\r\n", false, errAnswer, false},
		{"chunked", "HTTP/1.1 200 OK\r\nContent-Length: 0\r\nTransfer-Encoding: chunked\r\n\r\n", false, errAnswer, false},
		{"folded", "HTTP/1.1 200 OK\r\nContent-Length: 0\r\nX-A: b\r\n c\r\n\r\n", false, errAnswer, false},
		{"signed length", "HTTP/1.1 200 OK\r\nContent-Length: +1\r\n\r\n", false, errAnswer, false},
		{"length over MaxBody", "HTTP/1.1 400 Bad Request\r\nContent-Length: 1048577\r\n\r\n", true, nil, false},
		{"length over MaxAnswer", "HTTP/1.1 200 OK\r\nContent-Length: 1114113\r\n\r\n", false, errAnswer, false},
		{"no content", "HTTP/1.1 204 No Content\r\nContent-Length: 0\r\n\r\n", false, errAnswer, false},
		{"interim", "HTTP/1.1 100 Continue\r\nContent-Length: 0\r\n\r\n", false, errAnswer, false},
	} {
		done, err := parseAnswer([]byte(c.raw), &a)
		if done != c.done || err != c.err || done && a.close != c.close {
			t.Errorf("%s: done %v, %v, close %v; want %v, %v, %v", c.name, done, err, a.close, c.done, c.err, c.close)
		}
	}
}

// pipeConn is a conn whose backend end is the returned net.Conn.
func pipeConn() (*conn, net.Conn) {
	proxy, backend := net.Pipe()
	return &conn{nc: proxy}, backend
}

// TestReadAnswerBounds: readAnswer fails an answer the backend cut short
// and grows its buffer to fit exactly a body larger than it.
func TestReadAnswerBounds(t *testing.T) {
	for _, raw := range []string{"HTTP/1.1 200 OK\r\n", "HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\n{}"} {
		pc, backend := pipeConn()
		go func() {
			_, _ = io.WriteString(backend, raw)
			backend.Close()
		}()
		if err := pc.readAnswer(); err != io.ErrUnexpectedEOF {
			t.Fatalf("%q then a hang-up: %v, want io.ErrUnexpectedEOF", raw, err)
		}
	}

	body := strings.Repeat("b", 3*HeadBudget)
	pc, backend := pipeConn()
	go func() {
		_, _ = io.WriteString(backend, "HTTP/1.1 200 OK\r\nContent-Length: 12288\r\n\r\n"+body)
	}()
	if err := pc.readAnswer(); err != nil || string(pc.ans.body) != body || len(pc.rbuf) != pc.ans.n+len(body) {
		t.Fatalf("grown read: %v, %d-byte body, %d-byte buffer", err, len(pc.ans.body), len(pc.rbuf))
	}
	if trim(make([]byte, keepBuf+1)) != nil || trim(pc.rbuf) == nil {
		t.Fatal("trim keeps buffers up to keepBuf and drops larger ones")
	}
}

// TestBadAnswersFailTheExchange: an answer the client is not sure of fails
// the round trip — after the write, so not as a dial error the proxy would
// replay — and its connection is not pooled.
func TestBadAnswersFailTheExchange(t *testing.T) {
	for name, raw := range map[string]string{
		"oversize":  "HTTP/1.1 200 OK\r\nX-Pad: " + strings.Repeat("x", HeadBudget) + "\r\n\r\n",
		"malformed": "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
		"pipelined": "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}HTTP/1.1 200 OK\r\n",
	} {
		t.Run(name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			go func() {
				nc, err := ln.Accept()
				if err != nil {
					return
				}
				defer nc.Close()
				head, _ := bufio.NewReader(nc).ReadString('\n') // the request line is enough to answer
				if strings.HasPrefix(head, "POST /txn ") {
					_, _ = io.WriteString(nc, raw)
				}
				_, _ = io.Copy(io.Discard, nc)
			}()
			tr := NewTransport()
			defer tr.CloseIdleConnections()
			_, err = tr.Do(context.Background(), ln.Addr().String(), "", nil, 0, nil, nil)
			var op *net.OpError
			if err == nil || errors.As(err, &op) && op.Op == "dial" {
				t.Fatalf("bad answer: %v, want a post-write error", err)
			}
			if st := tr.Stats(ln.Addr().String()); st.Dials != 1 || st.Idle != 0 {
				t.Fatalf("connection of a bad answer: %+v", st)
			}
		})
	}
}

// FuzzHopResponse holds parseAnswer to http.ReadResponse: whenever the
// client accepts bytes as exactly one answer, ReadResponse must read the
// same answer from them — status, body length, close flag and the three
// headers the proxy uses — and nothing after it.
func FuzzHopResponse(f *testing.F) {
	for _, seed := range []string{
		doorAnswer,
		"HTTP/1.1 200 OK\r\ncontent-length: 0\r\nconnection: keep-alive, Close\r\n\r\n",
		"HTTP/1.1 200\r\nContent-Length:  2 \r\nX-Loadctl-Load:\r\nx-loadctl-load: b\r\n\r\n{}",
		"HTTP/1.1 503 Service Unavailable\r\nRetry-After: 1\r\nConnection: close\r\nContent-Length: 1\r\n\r\n\n",
		"HTTP/1.1 200 OK\r\nContent-Length: 0\r\nX-A: b\r\n c\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: 0\r\nTransfer-Encoding: chunked\r\n\r\n",
		"HTTP/1.0 200 OK\r\nContent-Length: 0\r\n\r\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var a answer
		if done, err := parseAnswer(raw, &a); !done || err != nil || a.n+a.bodyLen != len(raw) {
			return
		}
		br := bufio.NewReader(bytes.NewReader(raw))
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatalf("the hop accepts %q, which net/http refuses: %v", raw, err)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil || br.Buffered() != 0 {
			t.Fatalf("%q: net/http reads a %d-byte body (%v) and leaves %d bytes", raw, len(body), err, br.Buffered())
		}
		if resp.StatusCode != a.status || len(body) != a.bodyLen || resp.Close != a.close {
			t.Fatalf("%q: net/http reads %d, %d bytes, close %v; the hop %d, %d bytes, close %v",
				raw, resp.StatusCode, len(body), resp.Close, a.status, a.bodyLen, a.close)
		}
		for f, name := range keptNames {
			if got := resp.Header.Get(name); got != a.vals[f] {
				t.Fatalf("%q: net/http reads %s %q, the hop %q", raw, name, got, a.vals[f])
			}
		}
	})
}
