// Command emmatch matches a single pair of entity descriptions with a
// chosen model and prompt design and prints the prompt, the model's
// answer and the parsed decision.
//
// Usage:
//
//	emmatch -model GPT-4 -design general-complex-force \
//	    -a "Sony DSC-120B digital camera 348.00" \
//	    -b "sony dsc120b camera black 351.99"
//
//	emmatch -model GPT-4 -dataset wdc -pairs 5   # match dataset pairs
//
// Dataset and CSV evaluations run on the concurrent matching
// pipeline; -workers, -cache and -retries tune its worker pool,
// prompt cache and transient-error retry.
package main

import (
	"flag"
	"fmt"
	"os"

	"llm4em"
	"llm4em/internal/datasets"
)

func main() {
	model := flag.String("model", "GPT-4", "model name (GPT-mini, GPT-4, GPT-4o, Llama2, Llama3.1, Mixtral)")
	designName := flag.String("design", "general-complex-force", "prompt design name")
	a := flag.String("a", "", "first entity description")
	b := flag.String("b", "", "second entity description")
	domainName := flag.String("domain", "product", "domain: product or publication")
	dataset := flag.String("dataset", "", "match the first pairs of a benchmark instead of -a/-b")
	csvPath := flag.String("csv", "", "evaluate labelled pairs from a CSV file (emdata export layout)")
	pairs2 := flag.Int("pairs", 5, "number of pairs to match with -dataset or -csv")
	verbose := flag.Bool("v", false, "print full prompts")
	workers := flag.Int("workers", 0, "concurrent model calls (0 = pipeline default)")
	cacheSize := flag.Int("cache", 0, "prompt-cache entries (0 = pipeline default, negative disables)")
	retries := flag.Int("retries", 0, "retries for transient model errors (0 = pipeline default, negative disables)")
	flag.Parse()

	client, err := llm4em.NewModel(*model)
	fail(err)
	design, err := llm4em.DesignByName(*designName)
	fail(err)

	domain := llm4em.Product
	if *domainName == "publication" {
		domain = llm4em.Publication
	}

	if *csvPath != "" {
		f, err := os.Open(*csvPath)
		fail(err)
		defer f.Close()
		schema, pairs, err := datasets.ReadCSVPairs(f)
		fail(err)
		matcher := llm4em.Matcher{
			Client: client, Design: design, Domain: schema.Domain,
			Workers: *workers, CacheSize: *cacheSize, MaxRetries: *retries,
		}
		n := *pairs2
		if n <= 0 || n > len(pairs) {
			n = len(pairs)
		}
		res, err := matcher.Evaluate(pairs[:n])
		fail(err)
		fmt.Printf("%s on %s (%d pairs): F1 = %.2f (P %.2f / R %.2f), mean %.0f prompt tokens\n",
			*model, *csvPath, n, res.F1(), res.Confusion.Precision(), res.Confusion.Recall(), res.MeanPromptTokens())
		return
	}

	if *dataset != "" {
		ds, err := llm4em.LoadDataset(*dataset)
		fail(err)
		matcher := llm4em.Matcher{
			Client: client, Design: design, Domain: ds.Schema.Domain,
			Workers: *workers, CacheSize: *cacheSize, MaxRetries: *retries,
		}
		n := *pairs2
		if n <= 0 || n > len(ds.Test) {
			n = len(ds.Test)
		}
		// Stream decisions so progress appears as pairs complete rather
		// than after the whole run.
		decisions, wait := matcher.Stream(ds.Test[:n])
		correct := 0
		for d := range decisions {
			p := d.Pair
			verdict := "✗"
			if d.Correct() {
				verdict = "✓"
				correct++
			}
			fmt.Printf("%s gold=%v predicted=%v (%.0fms)\n  A: %s\n  B: %s\n  answer: %s\n",
				verdict, p.Match, d.Match, float64(d.Usage.Latency.Milliseconds()), p.A.Serialize(), p.B.Serialize(), d.Answer)
			if *verbose {
				fmt.Printf("  prompt:\n%s\n", matcher.BuildPrompt(p))
			}
		}
		_, err = wait()
		fail(err)
		fmt.Printf("%d/%d correct\n", correct, n)
		return
	}

	if *a == "" || *b == "" {
		fmt.Fprintln(os.Stderr, "emmatch: provide -a and -b, or -dataset")
		os.Exit(2)
	}
	pair := llm4em.Pair{
		ID: "cli",
		A:  llm4em.Record{ID: "a", Attrs: []llm4em.Attr{{Name: "description", Value: *a}}},
		B:  llm4em.Record{ID: "b", Attrs: []llm4em.Attr{{Name: "description", Value: *b}}},
	}
	matcher := llm4em.Matcher{Client: client, Design: design, Domain: domain}
	d, err := matcher.MatchPair(pair)
	fail(err)
	if *verbose {
		fmt.Printf("[PROMPT]\n%s\n\n", matcher.BuildPrompt(pair))
	}
	fmt.Printf("[%s ANSWER]\n%s\n\n[DECISION] match=%v (prompt %d tokens, completion %d tokens, %.2fs)\n",
		*model, d.Answer, d.Match, d.Usage.PromptTokens, d.Usage.CompletionTokens, d.Usage.Latency.Seconds())
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "emmatch:", err)
		os.Exit(1)
	}
}
