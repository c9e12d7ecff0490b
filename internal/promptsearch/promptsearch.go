// Package promptsearch implements the automated prompt tuning the
// paper points to in Section 3 ("automated approaches for prompt
// tuning and evolution could still further improve the results",
// citing Promptbreeder): a deterministic evolutionary search over
// task-description phrasings, evaluated on a validation subset,
// returning the prompt that maximizes F1 for a given model/dataset
// combination.
package promptsearch

import (
	"fmt"
	"strings"

	"llm4em/internal/detrand"
	"llm4em/internal/entity"
	"llm4em/internal/eval"
	"llm4em/internal/llm"
	"llm4em/internal/prompt"
)

// Options configures the search.
type Options struct {
	// Generations of the evolutionary loop (default 4).
	Generations int
	// Population size per generation (default 8).
	Population int
	// ValidationPairs caps the validation subset (default 200).
	ValidationPairs int
	// Seed names the deterministic search stream.
	Seed string
}

// DefaultOptions returns the standard search configuration.
func DefaultOptions() Options {
	return Options{Generations: 4, Population: 8, ValidationPairs: 200, Seed: "promptsearch"}
}

// Candidate is one evaluated prompt.
type Candidate struct {
	// Task is the evolved task description.
	Task string
	// Force reports whether the output-format instruction is attached.
	Force bool
	// F1 is the validation score.
	F1 float64
}

// Render returns the full prompt text the candidate produces for a
// pair.
func (c Candidate) Render(domain entity.Domain, pair entity.Pair) string {
	var b strings.Builder
	b.WriteString(c.Task)
	if c.Force {
		b.WriteByte(' ')
		b.WriteString(prompt.ForceInstruction)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "Entity 1: '%s'\nEntity 2: '%s'", pair.A.Serialize(), pair.B.Serialize())
	return b.String()
}

// Building blocks of the mutation grammar.
var (
	subjects = []string{
		"the two entity descriptions",
		"the two product descriptions",
		"the two records",
		"the following two entries",
		"the two listings",
		"the two publications",
	}
	verbs = []string{
		"match",
		"refer to the same real-world entity",
		"describe the same item",
		"denote the same real-world object",
		"represent the same entity",
	}
	prefixes = []string{
		"",
		"You are an expert in data integration. ",
		"Carefully compare all attributes. ",
		"Consider identifiers, names and numeric attributes. ",
	}
)

// Search evolves task descriptions for the model on the dataset's
// validation pool and returns the candidates of the final generation,
// best first.
func Search(client llm.Client, domain entity.Domain, validation []entity.Pair, opts Options) ([]Candidate, error) {
	if opts.Generations <= 0 {
		opts.Generations = DefaultOptions().Generations
	}
	if opts.Population <= 0 {
		opts.Population = DefaultOptions().Population
	}
	if opts.ValidationPairs <= 0 {
		opts.ValidationPairs = DefaultOptions().ValidationPairs
	}
	if opts.Seed == "" {
		opts.Seed = DefaultOptions().Seed
	}
	if len(validation) > opts.ValidationPairs {
		validation = validation[:opts.ValidationPairs]
	}
	if len(validation) == 0 {
		return nil, fmt.Errorf("promptsearch: empty validation pool")
	}

	rng := detrand.New(opts.Seed, client.Name())
	pop := initialPopulation(rng, opts.Population)
	for i := range pop {
		f1, err := evaluate(client, domain, pop[i], validation)
		if err != nil {
			return nil, err
		}
		pop[i].F1 = f1
	}
	sortByF1(pop)

	for g := 0; g < opts.Generations; g++ {
		// Keep the top half, refill with mutations of survivors.
		keep := len(pop) / 2
		if keep < 1 {
			keep = 1
		}
		next := append([]Candidate{}, pop[:keep]...)
		for len(next) < opts.Population {
			parent := next[rng.Intn(keep)]
			child := mutate(rng, parent)
			f1, err := evaluate(client, domain, child, validation)
			if err != nil {
				return nil, err
			}
			child.F1 = f1
			next = append(next, child)
		}
		pop = next
		sortByF1(pop)
	}
	return pop, nil
}

func initialPopulation(rng *detrand.RNG, n int) []Candidate {
	// Seed half of the population with the paper's fixed task
	// descriptions so the search starts from known-good phrasings and
	// mutates around them.
	seeds := []Candidate{
		{Task: "Do the two entity descriptions refer to the same real-world entity?", Force: true},
		{Task: "Do the two product descriptions refer to the same real-world product?", Force: true},
		{Task: "Do the two entity descriptions match?", Force: true},
		{Task: "Do the two entity descriptions refer to the same real-world entity?", Force: false},
	}
	pop := make([]Candidate, 0, n)
	for _, s := range seeds {
		if len(pop) < (n+1)/2 {
			pop = append(pop, s)
		}
	}
	for len(pop) < n {
		pop = append(pop, Candidate{
			Task:  compose(rng),
			Force: rng.Bool(0.5),
		})
	}
	return pop
}

func compose(rng *detrand.RNG) string {
	return detrand.Pick(rng, prefixes) +
		"Do " + detrand.Pick(rng, subjects) + " " + detrand.Pick(rng, verbs) + "?"
}

func mutate(rng *detrand.RNG, parent Candidate) Candidate {
	child := parent
	switch rng.Intn(3) {
	case 0:
		child.Task = compose(rng)
	case 1:
		child.Force = !child.Force
	default:
		// Swap one grammar slot by recomposing with a shared prefix.
		child.Task = detrand.Pick(rng, prefixes) + lastSentence(parent.Task)
	}
	return child
}

// lastSentence returns the question part of a task description.
func lastSentence(task string) string {
	if i := strings.LastIndex(task, ". "); i >= 0 {
		return task[i+2:]
	}
	return task
}

func evaluate(client llm.Client, domain entity.Domain, c Candidate, pairs []entity.Pair) (float64, error) {
	var conf eval.Confusion
	for _, p := range pairs {
		resp, err := client.Chat([]llm.Message{{Role: llm.User, Content: c.Render(domain, p)}})
		if err != nil {
			return 0, fmt.Errorf("promptsearch: evaluating %q: %w", c.Task, err)
		}
		conf.Add(p.Match, prompt.ParseAnswer(resp.Content))
	}
	return conf.F1(), nil
}

func sortByF1(pop []Candidate) {
	for i := 1; i < len(pop); i++ {
		c := pop[i]
		j := i - 1
		for j >= 0 && pop[j].F1 < c.F1 {
			pop[j+1] = pop[j]
			j--
		}
		pop[j+1] = c
	}
}
