package llm

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"llm4em/internal/features"
)

func extractCacheLen() int {
	extractCache.Lock()
	defer extractCache.Unlock()
	return len(extractCache.cur) + len(extractCache.old)
}

// TestExtractCacheBounded feeds the memo more distinct descriptions
// than any serving process's resolve history needs to reach: it must
// sit at its capacity — a full old generation plus the current one —
// and go on answering what ExtractText answers.
func TestExtractCacheBounded(t *testing.T) {
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ { // concurrent callers, as the pipeline's workers are
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < 100000; i += 4 {
				extractCached(fmt.Sprintf("acme widget mk%d 8gb black %d.99", i, i%500))
			}
		}(w)
	}
	wg.Wait()
	if n := extractCacheLen(); n <= extractCacheCap/2 || n > extractCacheCap {
		t.Fatalf("cache holds %d extractions after 100000 distinct descriptions, want within (%d, %d]",
			n, extractCacheCap/2, extractCacheCap)
	}
	const text = "Sony Cybershot DSC-120B digital camera black 348.00"
	want := features.ExtractText(text)
	for round := 0; round < 3; round++ { // miss, hit, hit after a promotion
		if got := extractCached(text); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: cached extraction differs:\ngot  %+v\nwant %+v", round, got, want)
		}
		if round == 1 {
			for i := 0; i < extractCacheCap/2; i++ { // age the entry into the old generation
				extractCached(fmt.Sprintf("filler %d", i))
			}
		}
	}
}

// TestExtractCacheDoesNotPinPrompt: descriptions reach the memo as
// substrings of a (batched) prompt; neither the cached key nor the
// extraction's Raw may alias it.
func TestExtractCacheDoesNotPinPrompt(t *testing.T) {
	prompt := strings.Repeat("x", 4096) + "acme pinned-prompt probe 77"
	desc := prompt[4096:]
	for round := 0; round < 2; round++ {
		e := extractCached(desc)
		if e.Raw != desc {
			t.Fatalf("Raw = %q, want %q", e.Raw, desc)
		}
		if unsafe.StringData(e.Raw) == unsafe.StringData(desc) {
			t.Fatalf("round %d: cached Raw aliases the prompt it was cut from", round)
		}
	}
	extractCache.Lock()
	defer extractCache.Unlock()
	for k := range extractCache.cur {
		if k == desc && unsafe.StringData(k) == unsafe.StringData(desc) {
			t.Fatal("cached key aliases the prompt it was cut from")
		}
	}
}
