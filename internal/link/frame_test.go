package link

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	req := Request{TraceID: 0xfeedface, Query: "class=interactive&k=4", Body: []byte(`{"span":16}`)}
	frame := AppendRequest(nil, &req)
	payload, _, err := readFrame(bytes.NewReader(frame), nil)
	if err != nil {
		t.Fatal(err)
	}
	var got Request
	if err := ParseRequest(payload, &got); err != nil {
		t.Fatal(err)
	}
	if got.TraceID != req.TraceID || got.Query != req.Query || !bytes.Equal(got.Body, req.Body) {
		t.Fatalf("request round trip: %+v", got)
	}

	resp := Response{Status: 429, TraceID: 7, Signal: "status=ok;limit=inf", RetryAfter: "2", ContentType: "application/json", Body: []byte("{}\n")}
	frame, err = AppendResponse(nil, &resp)
	if err != nil {
		t.Fatal(err)
	}
	if payload, _, err = readFrame(bytes.NewReader(frame), nil); err != nil {
		t.Fatal(err)
	}
	var back Response
	if err := ParseResponse(payload, &back); err != nil {
		t.Fatal(err)
	}
	if back.Status != 429 || back.TraceID != 7 || back.Signal != resp.Signal || back.RetryAfter != "2" ||
		back.ContentType != resp.ContentType || !bytes.Equal(back.Body, resp.Body) {
		t.Fatalf("response round trip: %+v", back)
	}
}

func TestReadFrameBounds(t *testing.T) {
	over := binary.BigEndian.AppendUint32(nil, MaxFrame+1)
	if _, _, err := readFrame(bytes.NewReader(over), nil); err != ErrFrameTooLarge {
		t.Fatalf("oversize frame: %v", err)
	}
	if _, _, err := readFrame(bytes.NewReader(nil), nil); err != io.EOF {
		t.Fatalf("closed between frames: %v, want io.EOF", err)
	}
	cut := AppendRequest(nil, &Request{Query: "k=4"})
	if _, _, err := readFrame(bytes.NewReader(cut[:len(cut)-1]), nil); err != io.ErrUnexpectedEOF {
		t.Fatalf("closed mid-frame: %v, want io.ErrUnexpectedEOF", err)
	}
	// A frame larger than the starting buffer grows it exactly to fit.
	big := AppendRequest(nil, &Request{Body: make([]byte, 3*initBuf)})
	payload, buf, err := readFrame(bytes.NewReader(big), nil)
	if err != nil || len(payload) != len(big)-4 || len(buf) != len(big) {
		t.Fatalf("grown read: %d payload, %d buffer, %v", len(payload), len(buf), err)
	}
	if trim(make([]byte, keepBuf+1)) != nil || trim(buf) == nil {
		t.Fatal("trim keeps buffers up to keepBuf and drops larger ones")
	}
}

// FuzzLinkFrame feeds arbitrary bytes to the frame reader and both payload
// decoders. They must never panic; the reader's buffer never exceeds the
// frame cap, and a length beyond the cap is refused before anything is
// allocated for it; whatever decodes must re-encode to the identical frame.
func FuzzLinkFrame(f *testing.F) {
	f.Add(AppendRequest(nil, &Request{TraceID: 1, Query: "k=4", Body: []byte("{}")}))
	resp, _ := AppendResponse(nil, &Response{Status: 200, Signal: "status=ok", ContentType: "application/json", Body: []byte("{}")})
	f.Add(resp)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0, 0, 0, 12, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, buf, err := readFrame(bytes.NewReader(data), nil)
		if len(buf) > 4+MaxFrame || (err == ErrFrameTooLarge && len(buf) != initBuf) {
			t.Fatalf("reader holds %d bytes after %v", len(buf), err)
		}
		if err != nil {
			return
		}
		frame := data[:4+len(payload)]
		var req Request
		if ParseRequest(payload, &req) == nil {
			if again := AppendRequest(nil, &req); !bytes.Equal(again, frame) {
				t.Fatalf("request re-encodes to %x, was %x", again, frame)
			}
		}
		var resp Response
		if ParseResponse(payload, &resp) == nil {
			again, err := AppendResponse(nil, &resp)
			if err != nil || !bytes.Equal(again, frame) {
				t.Fatalf("response re-encodes to %x (%v), was %x", again, err, frame)
			}
		}
	})
}
