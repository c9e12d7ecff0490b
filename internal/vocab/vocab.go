// Package vocab holds the shared vocabulary from which the synthetic
// benchmark datasets are generated: brand names, product lines,
// software titles, author names, publication venues and topic words.
//
// The same vocabulary backs the "world knowledge" of the simulated
// LLM engine (internal/llm). This mirrors reality: the entities in
// the paper's benchmarks (Sony products, SIGMOD papers, ...) are
// exactly the entities a web-pretrained LLM has seen, which is the
// stated reason LLM matchers generalize where PLM matchers do not.
package vocab

// Category identifies a product category used by the product-domain
// generators.
type Category string

// Product categories covered by WDC Products, Abt-Buy and
// Walmart-Amazon. Amazon-Google uses the dedicated software catalog.
const (
	Electronics Category = "electronics"
	Tools       Category = "tools"
	Clothing    Category = "clothing"
	Kitchen     Category = "kitchen"
)

// Brand couples a brand name with the product-line words it sells.
type Brand struct {
	Name  string
	Lines []string
}

// BrandsByCategory returns the brand catalog for a category. The
// returned slice must not be modified.
func BrandsByCategory(c Category) []Brand {
	return brandCatalog[c]
}

// Categories returns all product categories in stable order.
func Categories() []Category {
	return []Category{Electronics, Tools, Clothing, Kitchen}
}

// AllBrandNames returns every brand name across categories and the
// software vendors, in stable order. The simulated LLM uses this as
// its brand lexicon.
func AllBrandNames() []string {
	var names []string
	for _, c := range Categories() {
		for _, b := range brandCatalog[c] {
			names = append(names, b.Name)
		}
	}
	for _, v := range SoftwareVendors {
		names = append(names, v.Name)
	}
	return names
}

var brandCatalog = map[Category][]Brand{
	Electronics: {
		{"Sony", []string{"Bravia", "Cybershot", "Walkman", "Handycam", "Xperia"}},
		{"Samsung", []string{"Galaxy", "QLED", "SyncMaster", "Odyssey"}},
		{"Panasonic", []string{"Lumix", "Viera", "Toughbook"}},
		{"Canon", []string{"PowerShot", "EOS", "Pixma", "imageCLASS"}},
		{"Nikon", []string{"Coolpix", "Nikkor"}},
		{"LG", []string{"UltraGear", "OLED", "Gram"}},
		{"Toshiba", []string{"Satellite", "Portege", "Regza"}},
		{"Philips", []string{"Hue", "Brilliance", "Fidelio"}},
		{"JVC", []string{"Everio", "Kaboom"}},
		{"Pioneer", []string{"Elite", "Kuro"}},
		{"Yamaha", []string{"Aventage", "MusicCast"}},
		{"Bose", []string{"QuietComfort", "SoundLink", "Acoustimass"}},
		{"Sennheiser", []string{"Momentum", "HD"}},
		{"Logitech", []string{"MX", "Harmony"}},
		{"Netgear", []string{"Nighthawk", "ProSafe"}},
		{"Linksys", []string{"Velop", "WRT"}},
		{"Garmin", []string{"Nuvi", "Forerunner", "Fenix"}},
		{"TomTom", []string{"GO", "Start"}},
		{"Olympus", []string{"Stylus", "Tough"}},
		{"Kodak", []string{"EasyShare", "PixPro"}},
		{"Western Digital", []string{"Caviar", "Passport", "Elements"}},
		{"Seagate", []string{"Barracuda", "FreeAgent", "Expansion"}},
		{"SanDisk", []string{"Cruzer", "Extreme", "Ultra"}},
		{"Kingston", []string{"DataTraveler", "HyperX"}},
		{"Epson", []string{"Stylus", "WorkForce", "PowerLite"}},
		{"Brother", []string{"HL", "MFC"}},
		{"DYMO", []string{"LabelWriter", "LetraTag", "D1"}},
		{"Casio", []string{"Exilim", "GShock"}},
		{"Denon", []string{"AVR", "Heos"}},
		{"Onkyo", []string{"TX"}},
	},
	Tools: {
		{"DeWalt", []string{"Max", "XR", "Atomic"}},
		{"Makita", []string{"LXT", "CXT"}},
		{"Bosch", []string{"Professional", "Daredevil"}},
		{"Milwaukee", []string{"Fuel", "M18", "M12"}},
		{"Ryobi", []string{"One+", "Expand-It"}},
		{"Black & Decker", []string{"Matrix", "Workmate"}},
		{"Stanley", []string{"FatMax", "PowerLock"}},
		{"Craftsman", []string{"Versastack", "Brushless"}},
		{"Hitachi", []string{"Triple Hammer"}},
		{"Ridgid", []string{"Octane", "Gen5X"}},
		{"Dremel", []string{"Multi-Max", "Velocity"}},
		{"Hilti", []string{"Nuron", "TE"}},
	},
	Clothing: {
		{"Nike", []string{"Air Max", "Dri-Fit", "Pegasus"}},
		{"Adidas", []string{"Ultraboost", "Stan Smith", "Terrex"}},
		{"Puma", []string{"Suede", "Velocity"}},
		{"Levi's", []string{"501", "Trucker"}},
		{"Columbia", []string{"Bugaboo", "Silver Ridge"}},
		{"North Face", []string{"Denali", "Thermoball"}},
		{"Under Armour", []string{"HeatGear", "ColdGear"}},
		{"Carhartt", []string{"Duck", "Rugged Flex"}},
		{"Timberland", []string{"Premium", "Euro Hiker"}},
		{"Reebok", []string{"Classic", "Nano"}},
	},
	Kitchen: {
		{"KitchenAid", []string{"Artisan", "Classic"}},
		{"Cuisinart", []string{"Elemental", "Custom"}},
		{"Hamilton Beach", []string{"FlexBrew", "Wave Crusher"}},
		{"Oster", []string{"Pro", "Beehive"}},
		{"Breville", []string{"Barista", "Smart Oven"}},
		{"DeLonghi", []string{"Magnifica", "Dedica"}},
		{"Krups", []string{"Essential", "Precision"}},
		{"Braun", []string{"MultiQuick", "PurEase"}},
		{"Zojirushi", []string{"Neuro Fuzzy", "Micom"}},
		{"Instant Pot", []string{"Duo", "Ultra"}},
	},
}

// ProductTypesByCategory returns the head nouns used for product
// titles per category.
func ProductTypesByCategory(c Category) []string {
	return productTypes[c]
}

var productTypes = map[Category][]string{
	Electronics: {
		"digital camera", "camcorder", "lcd tv", "led monitor",
		"wireless headphones", "bluetooth speaker", "av receiver",
		"laptop", "external hard drive", "usb flash drive",
		"inkjet printer", "laser printer", "gps navigator",
		"wireless router", "label maker", "memory card",
	},
	Tools: {
		"cordless drill", "impact driver", "circular saw",
		"angle grinder", "rotary hammer", "jig saw", "orbital sander",
		"oscillating tool", "reciprocating saw", "tool kit",
	},
	Clothing: {
		"running shoes", "fleece jacket", "rain jacket", "work pants",
		"training shorts", "hiking boots", "hoodie", "polo shirt",
	},
	Kitchen: {
		"stand mixer", "food processor", "coffee maker",
		"espresso machine", "blender", "rice cooker", "toaster oven",
		"hand blender",
	},
}

// Colors, capacities, and size words used as product variant
// attributes; variant differences are the classic corner-case
// non-match.
var (
	Colors     = []string{"black", "white", "silver", "red", "blue", "gray", "green", "pink"}
	Capacities = []string{"4gb", "8gb", "16gb", "32gb", "64gb", "128gb", "250gb", "500gb", "1tb", "2tb"}
	Sizes      = []string{"small", "medium", "large", "xl", "10-inch", "12-inch", "15-inch", "17-inch", "19-inch", "22-inch"}
)

// MarketingNoise holds filler words vendors prepend or append to
// offer titles. They carry no identity signal and make surface forms
// heterogeneous.
var MarketingNoise = []string{
	"new", "brand new", "genuine", "original", "oem", "retail",
	"factory sealed", "free shipping", "best price", "2-pack",
	"w/ warranty", "in box", "bulk", "refurbished grade a",
}

// SellerSuffixes imitate marketplace seller decorations.
var SellerSuffixes = []string{
	"- megastore", "| top electronics", "(authorized dealer)",
	"- warehouse deals", "| daily deals", "- outlet",
}

// Vendor couples a software vendor with its product families, used by
// the Amazon-Google generator (software products).
type Vendor struct {
	Name     string
	Products []string
}

// SoftwareVendors is the catalog behind the Amazon-Google benchmark:
// rather textual offers for software products.
var SoftwareVendors = []Vendor{
	{"Microsoft", []string{"Windows XP Professional", "Windows Vista Home Premium", "Office Standard", "Office Small Business", "Visio Professional", "Project Standard", "Money Deluxe", "Encarta Premium", "Streets & Trips", "Works Suite"}},
	{"Adobe", []string{"Photoshop Elements", "Premiere Elements", "Acrobat Professional", "Creative Suite Design Standard", "Illustrator", "InDesign", "Dreamweaver", "Flash Professional", "Lightroom", "After Effects"}},
	{"Intuit", []string{"QuickBooks Pro", "QuickBooks Premier", "Quicken Deluxe", "Quicken Home & Business", "TurboTax Deluxe", "TurboTax Premier"}},
	{"Symantec", []string{"Norton AntiVirus", "Norton Internet Security", "Norton 360", "Norton Ghost", "Norton SystemWorks"}},
	{"Corel", []string{"WordPerfect Office", "Paint Shop Pro", "CorelDRAW Graphics Suite", "Painter", "VideoStudio"}},
	{"McAfee", []string{"VirusScan Plus", "Internet Security Suite", "Total Protection"}},
	{"Roxio", []string{"Easy Media Creator", "Toast Titanium", "Popcorn"}},
	{"Nero", []string{"Nero Ultra Edition", "Nero Burning ROM"}},
	{"Apple", []string{"Mac OS X Tiger", "Mac OS X Leopard", "Final Cut Express", "iWork", "Aperture", "Logic Express"}},
	{"Sage", []string{"Peachtree Complete Accounting", "ACT! by Sage", "Simply Accounting"}},
	{"Broderbund", []string{"Print Shop Deluxe", "Calendar Creator", "Mavis Beacon Teaches Typing"}},
	{"Encore", []string{"Hoyle Casino", "Advanced Spanish", "Mavis Beacon Keyboarding"}},
	{"Topics Entertainment", []string{"Instant Immersion Spanish", "Instant Immersion French", "SnapNDrag Pro"}},
	{"Individual Software", []string{"Typing Instructor Platinum", "ResumeMaker Professional", "Professor Teaches Windows"}},
	{"Nuance", []string{"Dragon NaturallySpeaking Preferred", "PaperPort Professional", "OmniPage Professional"}},
}

// SoftwareEditionWords distinguish near-identical software offers;
// edition confusion is the dominant Amazon-Google corner case.
var SoftwareEditionWords = []string{
	"upgrade", "full version", "academic", "student edition", "oem",
	"small box", "retail box", "3-user", "mac", "win",
}

// FirstNames and LastNames generate publication author lists.
var FirstNames = []string{
	"Michael", "David", "Wei", "Jun", "Hector", "Rakesh", "Surajit",
	"Jennifer", "Christos", "Divesh", "Jeffrey", "Alon", "Joseph",
	"Laura", "Hans", "Peter", "Anastasia", "Magdalena", "Samuel",
	"Daniela", "Jignesh", "Tim", "Donald", "Umeshwar", "Serge",
	"Victor", "Moshe", "Dan", "Raghu", "Johannes", "Bruce", "Carlo",
	"Elisa", "Gerhard", "Guido", "Hamid", "Ihab", "Ioana", "Jayant",
	"Kevin", "Ling", "Meral", "Nick", "Patricia", "Qiong", "Renee",
	"Stefano", "Themis", "Vasilis", "Xin", "Yannis", "Zachary",
}

// LastNames complements FirstNames.
var LastNames = []string{
	"Stonebraker", "DeWitt", "Gray", "Agrawal", "Chaudhuri", "Widom",
	"Faloutsos", "Srivastava", "Ullman", "Halevy", "Hellerstein",
	"Haas", "Garcia-Molina", "Naughton", "Bernstein", "Abiteboul",
	"Vianu", "Ramakrishnan", "Gehrke", "Carey", "Zaniolo", "Ceri",
	"Weikum", "Moerkotte", "Ioannidis", "Papadias", "Koudas",
	"Ganti", "Chakrabarti", "Dayal", "Jagadish", "Suciu", "Tannen",
	"Milo", "Segoufin", "Libkin", "Lenzerini", "Calvanese", "Rahm",
	"Thor", "Naumann", "Bizer", "Peeters", "Doan", "Tan", "Li",
	"Wang", "Chen", "Zhang", "Kumar", "Patel", "Miller", "Freire",
}

// TopicWord groups for publication titles; each title combines words
// from one topic to keep titles plausible and make same-topic
// non-matches a natural corner case.
var TopicPhrases = [][]string{
	{"query optimization", "for", "parallel database systems"},
	{"efficient processing", "of", "top-k queries"},
	{"adaptive indexing", "in", "main-memory column stores"},
	{"approximate query answering", "using", "wavelet synopses"},
	{"scalable entity resolution", "over", "heterogeneous data sources"},
	{"schema matching", "with", "statistical correlation analysis"},
	{"mining frequent patterns", "from", "large transaction databases"},
	{"online aggregation", "for", "interactive data exploration"},
	{"selectivity estimation", "using", "multidimensional histograms"},
	{"incremental maintenance", "of", "materialized views"},
	{"workload-aware partitioning", "for", "distributed query engines"},
	{"duplicate detection", "in", "dirty relational data"},
	{"cost-based optimization", "of", "recursive queries"},
	{"data cleaning", "with", "conditional functional dependencies"},
	{"cardinality estimation", "through", "learned models"},
	{"transaction management", "in", "multi-tenant cloud databases"},
	{"locality-aware scheduling", "for", "mapreduce workloads"},
	{"keyword search", "over", "graph structured data"},
	{"similarity joins", "with", "edit distance constraints"},
	{"sampling-based estimation", "for", "aggregate queries"},
	{"streaming analytics", "under", "bounded memory"},
	{"concurrency control", "for", "main-memory oltp systems"},
	{"provenance tracking", "in", "curated scientific databases"},
	{"crowdsourced data integration", "with", "quality guarantees"},
	{"privacy-preserving publishing", "of", "sensitive microdata"},
	{"spatial query processing", "on", "road networks"},
	{"compression techniques", "for", "columnar storage engines"},
	{"load shedding", "in", "data stream management systems"},
	{"versioned storage", "for", "collaborative analytics"},
	{"probabilistic databases", "and", "uncertain query answering"},
	{"record linkage", "using", "active learning"},
	{"federated query execution", "across", "autonomous data silos"},
}

// TitleModifiers prefix publication titles to create sibling papers
// (same topic, different contribution) — a bibliographic corner case.
var TitleModifiers = []string{
	"towards", "revisiting", "on", "a survey of", "benchmarking",
	"a framework for", "rethinking", "accelerating", "optimizing",
}

// Venue couples a full publication venue name with the surface
// variants under which it appears in bibliographic sources.
type Venue struct {
	Full     string
	Variants []string
	Journal  bool
}

// Venues is the venue catalog for the bibliographic generators,
// covering the conference/journal mix of DBLP, ACM and Google
// Scholar records.
var Venues = []Venue{
	{"SIGMOD Conference", []string{"SIGMOD", "Proc. SIGMOD", "ACM SIGMOD", "sigmod conference", "International Conference on Management of Data"}, false},
	{"VLDB", []string{"Proc. VLDB", "Very Large Data Bases", "vldb", "Proceedings of the VLDB Endowment", "PVLDB"}, false},
	{"ICDE", []string{"Proc. ICDE", "International Conference on Data Engineering", "icde", "IEEE ICDE"}, false},
	{"EDBT", []string{"Proc. EDBT", "Extending Database Technology", "edbt"}, false},
	{"CIKM", []string{"Proc. CIKM", "Information and Knowledge Management", "cikm"}, false},
	{"KDD", []string{"Proc. KDD", "Knowledge Discovery and Data Mining", "SIGKDD", "kdd"}, false},
	{"WWW", []string{"Proc. WWW", "World Wide Web Conference", "www"}, false},
	{"PODS", []string{"Proc. PODS", "Principles of Database Systems", "pods"}, false},
	{"ICDT", []string{"Proc. ICDT", "International Conference on Database Theory", "icdt"}, false},
	{"SIGIR", []string{"Proc. SIGIR", "Research and Development in Information Retrieval", "sigir"}, false},
	{"ACM TODS", []string{"TODS", "ACM Trans. Database Syst.", "ACM Transactions on Database Systems"}, true},
	{"VLDB Journal", []string{"VLDB J.", "The VLDB Journal", "vldbj"}, true},
	{"IEEE TKDE", []string{"TKDE", "IEEE Trans. Knowl. Data Eng.", "Transactions on Knowledge and Data Engineering"}, true},
	{"Information Systems", []string{"Inf. Syst.", "information systems"}, true},
	{"SIGMOD Record", []string{"SIGMOD Rec.", "sigmod record"}, true},
	{"Data Engineering Bulletin", []string{"IEEE Data Eng. Bull.", "DEBU"}, true},
}

// Abbreviate returns a crude word-abbreviation of s used by the noisy
// bibliographic source: it keeps the first prefixLen letters of words
// longer than that, appending a period.
func Abbreviate(word string, prefixLen int) string {
	if len(word) <= prefixLen {
		return word
	}
	return word[:prefixLen] + "."
}
