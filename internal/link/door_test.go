package link

import (
	"bufio"
	"bytes"
	"net/http"
	"testing"

	"github.com/tpctl/loadctl/internal/reqtrace"
)

// FuzzFrontDoorHead holds the door's head parser to http.ReadRequest:
// whenever the door would serve a head, ReadRequest must read it too, with
// the same method, raw query, Content-Length, Close and trace header.
func FuzzFrontDoorHead(f *testing.F) {
	for _, seed := range []string{
		"POST /txn HTTP/1.1\r\nHost: a\r\n\r\n",
		"POST /txn?class=update&k=8 HTTP/1.1\r\nHost: 127.0.0.1:80\r\nContent-Length: 0\r\nX-Loadctl-Trace: 00000000000004d2\r\n\r\n",
		"POST /txn? HTTP/1.1\r\nhost: a\r\ncontent-length:  12 \r\nConnection: keep-alive, close\r\n\r\n",
		"POST /txn?a=%zz#f HTTP/1.1\r\nHost: [::1]:8344\r\nX-Loadctl-Trace: bad\r\nX-Loadctl-Trace: 00000000000004d2\r\n\r\n",
		"POST /txn HTTP/1.1\r\nHost: a\r\nContent-Length: 1\r\nContent-Length: 1\r\n\r\n",
		"POST /txn HTTP/1.1\r\nHost: a\r\n folded\r\n\r\n",
		"POST /txn HTTP/1.1\nHost: a\n\n",
		"POST /txnx HTTP/1.1\r\nHost: a\r\n\r\n",
		"POST /txn HTTP/1.0\r\nHost: a\r\n\r\n",
		"GET /ws HTTP/1.1\r\nHost: a\r\nConnection: Upgrade\r\nUpgrade: websocket\r\n\r\n",
		"POST /txn HTTP/1.1\r\nHost: a\r\nTransfer-Encoding: chunked\r\n\r\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var h Head
		if parseHead(raw, &h) != headServe {
			return
		}
		r, err := http.ReadRequest(bufio.NewReader(bytes.NewReader(raw)))
		if err != nil {
			t.Fatalf("the door serves %q, which net/http refuses: %v", raw, err)
		}
		traceID, _ := reqtrace.FromRequest(r)
		if r.Method != http.MethodPost || r.URL.RawQuery != h.Query || r.ContentLength != h.BodyLen ||
			r.Close != h.Close || traceID != h.TraceID || len(r.Header["Host"]) > 1 {
			t.Fatalf("%q: net/http reads %s ?%q length %d close %v trace %x; the door ?%q length %d close %v trace %x",
				raw, r.Method, r.URL.RawQuery, r.ContentLength, r.Close, traceID, h.Query, h.BodyLen, h.Close, h.TraceID)
		}
	})
}
