package httpwire

import (
	"bufio"
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// quickConfig is a quick.Config whose cases are drawn from a fixed seed,
// which it logs: a case that fails is the same case on the next run, not
// one the clock chose.
func quickConfig(t *testing.T, maxCount int) *quick.Config {
	const seed = 1
	t.Logf("quick.Check: %d cases from seed %d", maxCount, seed)
	return &quick.Config{MaxCount: maxCount, Rand: rand.New(rand.NewSource(seed))}
}

func TestRequestRoundTrip(t *testing.T) {
	req := &Request{
		Method:  "GET",
		Target:  "http://example.com/index.html",
		Headers: DefaultRequestHeaders("example.com"),
	}
	got, err := ReadRequest(bufio.NewReader(bytes.NewReader(req.Marshal())))
	if err != nil {
		t.Fatal(err)
	}
	if got.Method != "GET" || got.Target != req.Target {
		t.Fatalf("request line: %+v", got)
	}
	if got.Headers["Host"] != "example.com" || got.Headers["User-Agent"] == "" {
		t.Fatalf("headers: %v", got.Headers)
	}
}

func TestResponseRoundTripWithBody(t *testing.T) {
	resp := &Response{
		Status: 200,
		Headers: map[string]string{
			"Content-Type":   "text/plain",
			"Content-Length": "11",
		},
		Body: []byte("hello world"),
	}
	got, err := ReadResponse(bufio.NewReader(bytes.NewReader(resp.Marshal())))
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != 200 || string(got.Body) != "hello world" {
		t.Fatalf("%+v", got)
	}
	if got.Reason != "OK" {
		t.Fatalf("reason %q", got.Reason)
	}
}

func TestPersistentConnectionParsesSequentialMessages(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 3; i++ {
		buf.Write((&Response{
			Status:  200,
			Headers: map[string]string{"Content-Length": "3"},
			Body:    []byte{'a' + byte(i), 'b', 'c'},
		}).Marshal())
	}
	br := bufio.NewReader(&buf)
	for i := 0; i < 3; i++ {
		resp, err := ReadResponse(br)
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if resp.Body[0] != 'a'+byte(i) {
			t.Fatalf("message %d body %q", i, resp.Body)
		}
	}
}

func TestCanonicalHeaderNames(t *testing.T) {
	raw := "GET / HTTP/1.1\r\nhOsT: x\r\ncontent-length: 0\r\nX-CUSTOM-THING: v\r\n\r\n"
	req, err := ReadRequest(bufio.NewReader(strings.NewReader(raw)))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Host", "Content-Length", "X-Custom-Thing"} {
		if _, ok := req.Headers[want]; !ok {
			t.Fatalf("missing canonical %q in %v", want, req.Headers)
		}
	}
}

func TestMalformedInputsRejected(t *testing.T) {
	cases := []string{
		"GARBAGE\r\n\r\n",
		"GET /\r\n\r\n",                       // missing version
		"HTTP/1.1\r\n\r\n",                    // status line too short
		"HTTP/1.1 abc OK\r\n\r\n",             // non-numeric status
		"GET / HTTP/1.1\r\nbadheader\r\n\r\n", // no colon
	}
	for _, c := range cases {
		br := bufio.NewReader(strings.NewReader(c))
		if strings.HasPrefix(c, "HTTP/") {
			if _, err := ReadResponse(br); err == nil {
				t.Errorf("accepted response %q", c)
			}
		} else {
			if _, err := ReadRequest(br); err == nil {
				t.Errorf("accepted request %q", c)
			}
		}
	}
}

func TestNegativeContentLengthRejected(t *testing.T) {
	raw := "HTTP/1.1 200 OK\r\nContent-Length: -5\r\n\r\n"
	if _, err := ReadResponse(bufio.NewReader(strings.NewReader(raw))); err == nil {
		t.Fatal("negative content-length accepted")
	}
}

func TestTruncatedBodyRejected(t *testing.T) {
	raw := "HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\nshort"
	if _, err := ReadResponse(bufio.NewReader(strings.NewReader(raw))); err == nil {
		t.Fatal("truncated body accepted")
	}
}

func TestHeaderLineLimit(t *testing.T) {
	var b strings.Builder
	b.WriteString("GET / HTTP/1.1\r\n")
	for i := 0; i < maxHeaderLines+1; i++ {
		b.WriteString("X-A: 1\r\n")
	}
	b.WriteString("\r\n")
	if _, err := ReadRequest(bufio.NewReader(strings.NewReader(b.String()))); err == nil {
		t.Fatal("unbounded headers accepted")
	}
}

func TestRequestSizeRealistic(t *testing.T) {
	n := RequestSize("www.example.com", "/some/path.html")
	// A Chrome-like proxied GET with cookies is a few hundred bytes and
	// must fit one TCP packet — the paper notes all requests did.
	if n < 300 || n > 1380 {
		t.Fatalf("request size %d implausible", n)
	}
}

func TestResponseHeadSizeRealistic(t *testing.T) {
	n := ResponseHeadSize("image/jpeg", 123456)
	if n < 150 || n > 600 {
		t.Fatalf("response head %d implausible", n)
	}
}

func TestHeadSizeExcludesBody(t *testing.T) {
	r := &Response{Status: 200, Headers: map[string]string{"Content-Length": "5"}, Body: []byte("12345")}
	if r.HeadSize() != len(r.Marshal())-5 {
		t.Fatalf("head size %d vs total %d", r.HeadSize(), len(r.Marshal()))
	}
	if string(r.Body) != "12345" {
		t.Fatal("HeadSize clobbered the body")
	}
}

func TestStatusText(t *testing.T) {
	if StatusText(200) != "OK" || StatusText(404) != "Not Found" || StatusText(999) != "Unknown" {
		t.Fatal("status text")
	}
}

func TestRequestMarshalDeterministic(t *testing.T) {
	check := func(seed uint8) bool {
		req := &Request{Method: "GET", Target: "/x", Headers: DefaultRequestHeaders("h.example")}
		a := req.Marshal()
		b := req.Marshal()
		return bytes.Equal(a, b)
	}
	if err := quick.Check(check, quickConfig(t, 5)); err != nil {
		t.Fatal(err)
	}
}
