package llm

// Profile holds the capability parameters of one simulated model.
//
// The values are calibrated against the paper's evaluation so that
// its qualitative findings reproduce: the zero-shot quality ordering
// and prompt-sensitivity ordering of Tables 2-3, the per-model
// reactions to demonstrations and rules of Tables 5-6, the
// fine-tuning and transfer behaviour of Table 7, and the token/cost/
// latency profile of Tables 8-9. They are not fitted to individual
// table cells.
type Profile struct {
	// Name is the short table name ("GPT-4"); APIName the full model
	// identifier ("gpt4-0613").
	Name    string
	APIName string
	// Hosted marks OpenAI-hosted models (cost analysis, Section 5).
	Hosted bool
	// ContextWindow is the advertised context size in tokens.
	ContextWindow int

	// WeightFidelity in [0,1] interpolates the model's innate matching
	// knowledge from naive title-overlap weighting (0) to the ideal
	// reference weighting (1).
	WeightFidelity float64
	// NoiseSigma is the standard deviation of the per-pair decision
	// noise on the logit scale.
	NoiseSigma float64
	// PromptSensitivity scales the per-prompt-design threshold shift;
	// it is the primary driver of the F1 standard deviations of
	// Table 3.
	PromptSensitivity float64
	// SimpleWordingPenalty shifts the decision threshold conservative
	// when the task description uses the bare "match?" wording, which
	// under-specifies the task for weaker models.
	SimpleWordingPenalty float64

	// HedgeRate is the base probability of answering a free-format
	// prompt with verbose, non-committal text that fails the "yes"
	// parse. SimpleHedgeBoost multiplies it under simple wording.
	HedgeRate        float64
	SimpleHedgeBoost float64
	// ForceCompliance is the probability of answering a force-format
	// prompt with a bare Yes/No instead of a sentence.
	ForceCompliance float64

	// ICLGain is the per-demonstration calibration gain (negative for
	// models that demonstrations confuse); ICLRelatedBonus is the
	// extra gain from semantically related demonstrations.
	ICLGain         float64
	ICLRelatedBonus float64

	// RuleUtilization in [0,1] is how strongly the model adopts the
	// attribute weighting expressed by textual matching rules.
	// RuleConjunctive is the probability of misapplying the rules as a
	// strict conjunction (all mentioned attributes must match), which
	// collapses recall.
	RuleUtilization float64
	RuleConjunctive float64

	// FreeVerbosity is the mean completion length (tokens) of verbose
	// free-format answers.
	FreeVerbosity int
	// DemoFormatGrounding reports whether in-context demonstrations
	// ground the model's output format (short answers after demos).
	DemoFormatGrounding bool

	// Latency model: Latency = LatBase + LatPerIn·promptTokens +
	// LatPerOut·completionTokens, in seconds.
	LatBase   float64
	LatPerIn  float64
	LatPerOut float64
	// LatFineTuned is the per-request latency of the locally deployed
	// fine-tuned (quantized) variant; zero if not applicable.
	LatFineTuned float64

	// FTPlasticity in [0,1] is how completely fine-tuning replaces the
	// model's innate weighting with the fitted one; FTRetention in
	// [0,1] is how much general (ideal) knowledge is mixed back in,
	// which preserves cross-dataset generalization.
	FTPlasticity float64
	FTRetention  float64
	// FTNoiseScale multiplies NoiseSigma after fine-tuning.
	FTNoiseScale float64
}

// Model names as used in the paper's tables, plus the additional
// models of the project repository.
const (
	GPTMini       = "GPT-mini"
	GPT4          = "GPT-4"
	GPT4o         = "GPT-4o"
	Llama2        = "Llama2"
	Llama31       = "Llama3.1"
	Mixtral       = "Mixtral"
	GPT4Turbo     = "GPT4-turbo"
	GPT35Turbo    = "GPT3.5-turbo"
	SOLAR         = "SOLAR"
	StableBeluga2 = "StableBeluga2"
)

// AdditionalModels returns the models outside the main study for
// which the paper's repository provides extra results.
func AdditionalModels() []string {
	return []string{GPT35Turbo, SOLAR, StableBeluga2}
}

// profiles is the calibrated model registry.
var profiles = map[string]Profile{
	GPTMini: {
		Name: GPTMini, APIName: "gpt-4o-mini-2024-07-18", Hosted: true, ContextWindow: 128000,
		WeightFidelity: 0.88, NoiseSigma: 0.55,
		PromptSensitivity: 0.85, SimpleWordingPenalty: 2.4,
		HedgeRate: 0.10, SimpleHedgeBoost: 5.5, ForceCompliance: 0.75,
		ICLGain: -0.15, ICLRelatedBonus: 0.05,
		RuleUtilization: 0.35, RuleConjunctive: 0,
		FreeVerbosity: 89, DemoFormatGrounding: true,
		LatBase: 0.35, LatPerIn: 0.0001, LatPerOut: 0.013,
		FTPlasticity: 0.95, FTRetention: 0.55, FTNoiseScale: 0.55,
	},
	GPT4: {
		Name: GPT4, APIName: "gpt4-0613", Hosted: true, ContextWindow: 8192,
		WeightFidelity: 1.0, NoiseSigma: 0.26,
		PromptSensitivity: 0.38, SimpleWordingPenalty: 0.35,
		HedgeRate: 0.015, SimpleHedgeBoost: 1.5, ForceCompliance: 0.98,
		ICLGain: 0.05, ICLRelatedBonus: 0.30,
		RuleUtilization: 0.30, RuleConjunctive: 0,
		FreeVerbosity: 40, DemoFormatGrounding: true,
		LatBase: 0.55, LatPerIn: 0.0002, LatPerOut: 0.04,
	},
	GPT4o: {
		Name: GPT4o, APIName: "gpt-4o-2024-08-06", Hosted: true, ContextWindow: 128000,
		WeightFidelity: 0.95, NoiseSigma: 0.42,
		PromptSensitivity: 0.55, SimpleWordingPenalty: 0.8,
		HedgeRate: 0.80, SimpleHedgeBoost: 1.4, ForceCompliance: 0.97,
		ICLGain: 0.55, ICLRelatedBonus: 0.35,
		RuleUtilization: 0.30, RuleConjunctive: 0,
		FreeVerbosity: 55, DemoFormatGrounding: true,
		LatBase: 0.44, LatPerIn: 0.0002, LatPerOut: 0.03,
	},
	Llama2: {
		Name: Llama2, APIName: "Llama-2-70b-chat-hf", Hosted: false, ContextWindow: 4096,
		WeightFidelity: 0.60, NoiseSigma: 0.85,
		PromptSensitivity: 0.40, SimpleWordingPenalty: 0.75,
		HedgeRate: 0.26, SimpleHedgeBoost: 1.15, ForceCompliance: 0.55,
		ICLGain: 0.12, ICLRelatedBonus: 0,
		RuleUtilization: 0.25, RuleConjunctive: 0.75,
		FreeVerbosity: 105, DemoFormatGrounding: false,
		LatBase: 0.8, LatPerIn: 0.0004, LatPerOut: 0.2, LatFineTuned: 0.30,
		FTPlasticity: 1.0, FTRetention: 0.08, FTNoiseScale: 0.65,
	},
	Llama31: {
		Name: Llama31, APIName: "Meta-Llama-3.1-70B-Instruct", Hosted: false, ContextWindow: 128000,
		WeightFidelity: 0.90, NoiseSigma: 0.50,
		PromptSensitivity: 0.95, SimpleWordingPenalty: 1.6,
		HedgeRate: 0.36, SimpleHedgeBoost: 2.4, ForceCompliance: 0.92,
		ICLGain: 0.28, ICLRelatedBonus: 0.10,
		RuleUtilization: 0.12, RuleConjunctive: 0.02,
		FreeVerbosity: 60, DemoFormatGrounding: true,
		LatBase: 0.30, LatPerIn: 0.002, LatPerOut: 0.08, LatFineTuned: 0.30,
		FTPlasticity: 1.0, FTRetention: 0.22, FTNoiseScale: 0.60,
	},
	Mixtral: {
		Name: Mixtral, APIName: "Mixtral-8x7B-Instruct-v0.1", Hosted: false, ContextWindow: 32000,
		WeightFidelity: 0.36, NoiseSigma: 1.0,
		PromptSensitivity: 0.60, SimpleWordingPenalty: 1.5,
		HedgeRate: 0.44, SimpleHedgeBoost: 1.8, ForceCompliance: 0.60,
		ICLGain: -0.18, ICLRelatedBonus: 0,
		RuleUtilization: 0.85, RuleConjunctive: 0,
		FreeVerbosity: 70, DemoFormatGrounding: false,
		LatBase: 0.5, LatPerIn: 0.0015, LatPerOut: 0.09,
	},
	GPT35Turbo: {
		// Additional model of the project repository (Section 3 notes
		// extra results for GPT3.5-turbo, SOLAR and StableBeluga2).
		Name: GPT35Turbo, APIName: "gpt-3.5-turbo-0125", Hosted: true, ContextWindow: 16385,
		WeightFidelity: 0.78, NoiseSigma: 0.65,
		PromptSensitivity: 0.9, SimpleWordingPenalty: 1.8,
		HedgeRate: 0.22, SimpleHedgeBoost: 2.5, ForceCompliance: 0.85,
		ICLGain: 0.10, ICLRelatedBonus: 0.05,
		RuleUtilization: 0.40, RuleConjunctive: 0.05,
		FreeVerbosity: 70, DemoFormatGrounding: true,
		LatBase: 0.30, LatPerIn: 0.0001, LatPerOut: 0.01,
	},
	SOLAR: {
		Name: SOLAR, APIName: "SOLAR-0-70b-16bit", Hosted: false, ContextWindow: 4096,
		WeightFidelity: 0.55, NoiseSigma: 0.9,
		PromptSensitivity: 0.8, SimpleWordingPenalty: 1.6,
		HedgeRate: 0.38, SimpleHedgeBoost: 2.0, ForceCompliance: 0.55,
		ICLGain: 0.08, ICLRelatedBonus: 0,
		RuleUtilization: 0.45, RuleConjunctive: 0.25,
		FreeVerbosity: 95, DemoFormatGrounding: false,
		LatBase: 0.7, LatPerIn: 0.0005, LatPerOut: 0.15,
	},
	StableBeluga2: {
		Name: StableBeluga2, APIName: "StableBeluga2", Hosted: false, ContextWindow: 4096,
		WeightFidelity: 0.50, NoiseSigma: 0.95,
		PromptSensitivity: 0.85, SimpleWordingPenalty: 1.7,
		HedgeRate: 0.45, SimpleHedgeBoost: 2.1, ForceCompliance: 0.50,
		ICLGain: 0.05, ICLRelatedBonus: 0,
		RuleUtilization: 0.35, RuleConjunctive: 0.3,
		FreeVerbosity: 100, DemoFormatGrounding: false,
		LatBase: 0.8, LatPerIn: 0.0005, LatPerOut: 0.17,
	},
	GPT4Turbo: {
		// GPT4-turbo is used only for the error-analysis tasks of
		// Section 7; its matching parameters mirror GPT-4.
		Name: GPT4Turbo, APIName: "gpt-4-turbo", Hosted: true, ContextWindow: 128000,
		WeightFidelity: 1.0, NoiseSigma: 0.32,
		PromptSensitivity: 0.22, SimpleWordingPenalty: 0.25,
		HedgeRate: 0.015, SimpleHedgeBoost: 1.5, ForceCompliance: 0.98,
		ICLGain: 0.05, ICLRelatedBonus: 0.30,
		RuleUtilization: 0.30, RuleConjunctive: 0,
		FreeVerbosity: 45, DemoFormatGrounding: true,
		LatBase: 0.5, LatPerIn: 0.0002, LatPerOut: 0.035,
	},
}

// StudyModels returns the six models of the main study in the paper's
// column order.
func StudyModels() []string {
	return []string{GPTMini, GPT4, GPT4o, Llama2, Llama31, Mixtral}
}

// HostedModels returns the OpenAI-hosted models of the cost analysis.
func HostedModels() []string {
	return []string{GPTMini, GPT4, GPT4o}
}

// ProfileByName returns the calibrated profile of a model.
func ProfileByName(name string) (Profile, bool) {
	p, ok := profiles[name]
	return p, ok
}
